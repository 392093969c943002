//! The campaign service daemon.
//!
//! [`Server::start`] binds the protocol listener (and optionally a
//! metrics scrape listener), spawns one thread per accepted connection
//! plus a small fixed set of dispatcher threads, and multiplexes every
//! admitted campaign's runs over **one** shared [`Executor`] — so N
//! concurrent submissions share the same worker budget instead of
//! multiplying it.
//!
//! # Life of a submission
//!
//! 1. The connection thread performs the version handshake, reads
//!    `Submit`, validates the spec, assigns a campaign id (`c0001`,
//!    `c0002`, …), and namespaces the output directory by that id.
//! 2. Admission is bounded: a full queue answers `Busy` and closes; a
//!    directory another campaign is still writing answers `Rejected`
//!    (`dir-busy`).
//! 3. A dispatcher thread pops the submission and runs the ordinary
//!    [`Campaign`] engine against the shared executor, with a tee sink
//!    that forwards each completed record into the client's bounded
//!    outbound queue. The connection thread drains that queue to the
//!    socket. A consumer that stays full past the slow-consumer timeout
//!    is dropped — the campaign keeps running to disk.
//! 4. `Done` (or `Error`) ends the stream and the connection.
//!
//! # Determinism
//!
//! The daemon adds no scheduling input to a run: seeds derive from
//! `(campaign seed, run key)` exactly as in the batch path, and the
//! `json` payload of every `Record` frame is the record's batch-path
//! serialization. A served campaign is byte-identical to `eaao campaign`
//! output, modulo `wall_ms`.
//!
//! # Shutdown
//!
//! `Shutdown` (or [`Server::shutdown`]) starts a drain: new submissions
//! are rejected (`draining`), queued and in-flight campaigns finish and
//! stream out, then [`Server::wait`] returns. Nothing is aborted.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eaao_campaign::engine::Campaign;
use eaao_campaign::pool::Executor;
use eaao_campaign::runner::RunRecord;
use eaao_campaign::sink::RecordSink;
use eaao_campaign::spec::CampaignSpec;
use eaao_obs::metrics::{MetricsRegistry, MetricsSnapshot};
use eaao_obs::scrape;
use parking_lot::{Condvar, Mutex};

use crate::proto::{read_frame, write_frame, ClientFrame, ServerFrame, PROTOCOL_VERSION};

/// Daemon configuration with conservative defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Protocol listener address. Use port 0 to let the OS pick.
    pub addr: String,
    /// Optional scrape listener address; `None` disables the endpoint.
    pub metrics_addr: Option<String>,
    /// Worker threads in the shared executor.
    pub jobs: usize,
    /// Directory under which campaign output directories are created.
    pub out_root: PathBuf,
    /// Admission-queue bound; a full queue answers `Busy`.
    pub max_pending: usize,
    /// Dispatcher threads — the number of campaigns that can be
    /// *in flight* at once (their runs all share the one executor).
    pub dispatchers: usize,
    /// Per-client outbound queue bound (frames).
    pub outbound_capacity: usize,
    /// How long a producer waits on a full outbound queue before the
    /// client is declared slow and dropped.
    pub slow_consumer_ms: u64,
    /// Socket read timeout during the handshake/submit phase, so an
    /// idle half-open connection cannot stall a drain forever.
    pub handshake_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            metrics_addr: None,
            jobs: 2,
            out_root: PathBuf::from("serve-out"),
            max_pending: 8,
            dispatchers: 2,
            outbound_capacity: 256,
            slow_consumer_ms: 5_000,
            handshake_timeout_ms: 10_000,
        }
    }
}

/// Completed-campaign metrics snapshots retained for the scrape page.
/// The oldest entries are evicted past this bound so a long-running
/// daemon's memory stays flat no matter how many campaigns it serves.
const MAX_CAMPAIGN_SNAPSHOTS: usize = 512;

/// Inserts a campaign's merged metrics, evicting the oldest snapshots
/// once the map exceeds `cap`.
fn insert_bounded(
    campaigns: &mut BTreeMap<String, MetricsSnapshot>,
    id: String,
    snapshot: MetricsSnapshot,
    cap: usize,
) {
    campaigns.insert(id, snapshot);
    while campaigns.len() > cap {
        campaigns.pop_first();
    }
}

/// One admitted, not-yet-dispatched campaign.
struct Submission {
    id: String,
    spec: CampaignSpec,
    dir: PathBuf,
    queue: Arc<OutboundQueue>,
}

struct DispatchState {
    pending: VecDeque<Submission>,
    active: usize,
    shutdown: bool,
}

struct OutboundState {
    frames: VecDeque<ServerFrame>,
    finished: bool,
    dropped: bool,
}

/// A bounded frame queue between a dispatcher (producer) and one
/// connection's writer loop (consumer).
struct OutboundQueue {
    state: Mutex<OutboundState>,
    space: Condvar,
    ready: Condvar,
    capacity: usize,
    slow_consumer: Duration,
}

impl OutboundQueue {
    fn new(capacity: usize, slow_consumer: Duration) -> OutboundQueue {
        OutboundQueue {
            state: Mutex::new(OutboundState {
                // bound: push blocks, then drops the consumer, at `capacity` frames
                frames: VecDeque::new(),
                finished: false,
                dropped: false,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            slow_consumer,
        }
    }

    /// Enqueues `frame`, blocking while the queue is full. Returns
    /// `false` once the consumer is gone (dropped for slowness or a
    /// write error) — the producer should stop streaming but keep
    /// running.
    fn push(&self, frame: ServerFrame) -> bool {
        let mut state = self.state.lock();
        while !state.dropped && state.frames.len() >= self.capacity {
            if self.space.wait_for(&mut state, self.slow_consumer) {
                // Still full after the whole grace period: the consumer
                // is too slow to keep. Dropping here, on the producer
                // side, is the backpressure escape hatch that stops one
                // stalled client from wedging a dispatcher.
                state.dropped = true;
                state.frames.clear();
                self.ready.notify_all();
                return false;
            }
        }
        if state.dropped {
            return false;
        }
        state.frames.push_back(frame);
        self.ready.notify_one();
        true
    }

    /// Marks the stream complete; the consumer drains what remains and
    /// stops.
    fn finish(&self) {
        let mut state = self.state.lock();
        state.finished = true;
        self.ready.notify_all();
    }

    /// Consumer side: declares the client unreachable.
    fn mark_dropped(&self) {
        let mut state = self.state.lock();
        state.dropped = true;
        state.frames.clear();
        self.space.notify_all();
        self.ready.notify_all();
    }

    fn dropped(&self) -> bool {
        self.state.lock().dropped
    }

    /// Blocks for the next frame; `None` means the stream is complete
    /// (or abandoned) and fully drained.
    fn pop(&self) -> Option<ServerFrame> {
        let mut state = self.state.lock();
        loop {
            if let Some(frame) = state.frames.pop_front() {
                self.space.notify_one();
                return Some(frame);
            }
            if state.finished || state.dropped {
                return None;
            }
            self.ready.wait(&mut state);
        }
    }
}

/// The record sink handed to the campaign engine for one submission:
/// serializes each record exactly as the batch path would and forwards
/// it into the client's outbound queue.
struct ClientTee {
    campaign: String,
    total: u64,
    done: AtomicU64,
    queue: Arc<OutboundQueue>,
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ClientTee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientTee")
            .field("campaign", &self.campaign)
            .field("total", &self.total)
            .finish()
    }
}

impl RecordSink for ClientTee {
    fn record(&self, record: &RunRecord) -> std::io::Result<()> {
        let json = serde_json::to_string(record).expect("run records always serialize");
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.metrics.counter("serve.runs_completed").add(1);
        if self.queue.dropped() {
            return Ok(());
        }
        let bytes = json.len() as u64;
        let delivered = self.queue.push(ServerFrame::Record {
            campaign: self.campaign.clone(),
            done,
            total: self.total,
            json,
        });
        if delivered {
            self.inner.metrics.counter("serve.records_streamed").add(1);
            self.inner
                .metrics
                .counter("serve.bytes_streamed")
                .add(bytes);
        } else {
            self.inner
                .metrics
                .counter("serve.slow_consumer_drops")
                .add(1);
        }
        Ok(())
    }
}

/// Shared daemon state.
struct Inner {
    config: ServeConfig,
    executor: Executor,
    state: Mutex<DispatchState>,
    dispatch: Condvar,
    live_dirs: Mutex<BTreeSet<PathBuf>>,
    campaigns: Mutex<BTreeMap<String, MetricsSnapshot>>,
    metrics: MetricsRegistry,
    next_id: AtomicU64,
    draining: AtomicBool,
    accept_stop: AtomicBool,
    active_clients: AtomicU64,
}

impl Inner {
    fn begin_shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let mut state = self.state.lock();
        state.shutdown = true;
        self.dispatch.notify_all();
    }

    fn assign_id(&self) -> String {
        let seq = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        format!("c{seq:04}")
    }

    /// Renders the scrape body: service-level series first, then each
    /// campaign's merged metrics labeled by campaign id.
    fn scrape_body(&self) -> String {
        // Read under the dispatch lock, publish after releasing it: the
        // gauge call takes the registry lock, and holding both would pin
        // an acquisition order on every other metrics call site.
        let (queued, active) = {
            let state = self.state.lock();
            (state.pending.len() as f64, state.active as f64)
        };
        self.metrics.gauge("serve.queued_campaigns").set(queued);
        self.metrics.gauge("serve.active_campaigns").set(active);
        self.metrics
            .gauge("serve.active_clients")
            .set(self.active_clients.load(Ordering::Relaxed) as f64);
        self.metrics
            .gauge("serve.outstanding_runs")
            .set(self.executor.outstanding() as f64);
        let mut body = scrape::render(&self.metrics.snapshot());
        for (id, snapshot) in self.campaigns.lock().iter() {
            body.push_str(&scrape::render_with_labels(snapshot, &[("campaign", id)]));
        }
        body
    }
}

/// A running daemon. Dropping without [`Server::wait`] leaks the
/// listener threads until process exit; prefer `shutdown()` + `wait()`.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    accept: Option<JoinHandle<()>>,
    scrape: Option<JoinHandle<()>>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("metrics_addr", &self.metrics_addr)
            .finish()
    }
}

impl Server {
    /// Binds the listeners, spawns the worker pool and service threads,
    /// and returns immediately.
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::Error`] if a listener cannot bind or the
    /// output root cannot be created.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.out_root)?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };
        let dispatchers = config.dispatchers.max(1);
        let inner = Arc::new(Inner {
            executor: Executor::new(config.jobs),
            config,
            state: Mutex::new(DispatchState {
                // bound: handle_submit answers Busy once len reaches config.max_pending
                pending: VecDeque::new(),
                active: 0,
                shutdown: false,
            }),
            dispatch: Condvar::new(),
            live_dirs: Mutex::new(BTreeSet::new()),
            campaigns: Mutex::new(BTreeMap::new()),
            metrics: MetricsRegistry::new(),
            next_id: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            accept_stop: AtomicBool::new(false),
            active_clients: AtomicU64::new(0),
        });
        let dispatchers = (0..dispatchers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || dispatcher_loop(&inner))
            })
            .collect();
        let accept = {
            let inner = Arc::clone(&inner);
            Some(std::thread::spawn(move || accept_loop(&inner, &listener)))
        };
        let scrape = metrics_listener.map(|listener| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || scrape_loop(&inner, &listener))
        });
        Ok(Server {
            inner,
            addr,
            metrics_addr,
            accept,
            scrape,
            dispatchers,
        })
    }

    /// The bound protocol address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound scrape address, when enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Starts a drain as if a `Shutdown` frame had arrived.
    pub fn shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Blocks until a shutdown has been requested **and** every queued
    /// and in-flight campaign has finished streaming, then tears down
    /// the listener threads and drains the executor.
    ///
    /// # Errors
    ///
    /// Returns an error if any service thread (dispatcher, accept, or
    /// scrape loop) panicked: the daemon drained, but not cleanly.
    pub fn wait(mut self) -> std::io::Result<()> {
        let mut panicked = 0usize;
        for handle in self.dispatchers.drain(..) {
            if handle.join().is_err() {
                panicked += 1;
            }
        }
        // Dispatchers only exit after the drain completes, so every
        // stream is finished; now unblock the accept loops.
        self.inner.accept_stop.store(true, Ordering::SeqCst);
        #[expect(
            clippy::let_underscore_must_use,
            reason = "wakeup nudge; a failed connect means the listener is gone"
        )]
        let _ = TcpStream::connect(self.addr);
        if let Some(addr) = self.metrics_addr {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "wakeup nudge; a failed connect means the scrape listener is gone"
            )]
            let _ = TcpStream::connect(addr);
        }
        if let Some(handle) = self.accept.take() {
            if handle.join().is_err() {
                panicked += 1;
            }
        }
        if let Some(handle) = self.scrape.take() {
            if handle.join().is_err() {
                panicked += 1;
            }
        }
        self.inner.executor.drain();
        if panicked > 0 {
            return Err(std::io::Error::other(format!(
                "{panicked} service thread(s) panicked during the drain"
            )));
        }
        Ok(())
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if inner.accept_stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Reap exited connection threads as new ones arrive, so a
        // long-lived daemon does not hold one JoinHandle per connection
        // it ever served.
        connections.retain(|handle| !handle.is_finished());
        let inner = Arc::clone(inner);
        connections.push(std::thread::spawn(move || {
            handle_connection(&inner, stream)
        }));
    }
    for handle in connections {
        if handle.join().is_err() {
            inner.metrics.counter("serve.connection_panics").add(1);
        }
    }
}

fn scrape_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if inner.accept_stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // A panic while rendering (snapshot merging does real math) must
        // not kill the scrape thread: the endpoint would silently serve
        // connection resets for the rest of the daemon's life.
        let body = match catch_unwind(AssertUnwindSafe(|| inner.scrape_body())) {
            Ok(body) => body,
            Err(_) => {
                inner.metrics.counter("serve.scrape_panics").add(1);
                continue;
            }
        };
        if stream
            .write_all(scrape::http_response(&body).as_bytes())
            .is_err()
        {
            inner.metrics.counter("serve.scrape_write_errors").add(1);
            continue;
        }
        drain_request(stream);
    }
}

/// How long a scrape client may take, once the page is written, to finish
/// sending its request and close.
const SCRAPE_DRAIN_MS: u64 = 500;

/// The most request bytes a scrape connection reads before it closes anyway.
const SCRAPE_DRAIN_CAP: usize = 16 * 1024;

/// Ends a scrape connection without resetting it. The page was written
/// without reading the request, and closing a socket whose receive buffer
/// still holds bytes makes the kernel answer with a reset, which can
/// destroy the page before a client that sent `GET /metrics` reads it. So
/// half-close the write side (the client reads EOF after the page at once)
/// and consume the request until the client closes, [`SCRAPE_DRAIN_MS`]
/// pass, or [`SCRAPE_DRAIN_CAP`] bytes arrive.
fn drain_request(mut stream: TcpStream) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let deadline = Instant::now() + Duration::from_millis(SCRAPE_DRAIN_MS);
    let mut buf = [0u8; 1024];
    let mut drained = 0;
    while drained < SCRAPE_DRAIN_CAP {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => drained += n,
        }
    }
}

fn dispatcher_loop(inner: &Arc<Inner>) {
    loop {
        let submission = {
            let mut state = inner.state.lock();
            loop {
                if let Some(submission) = state.pending.pop_front() {
                    state.active += 1;
                    break submission;
                }
                if state.shutdown {
                    return;
                }
                inner.dispatch.wait(&mut state);
            }
        };
        // A panic escaping the campaign (Executor::run_with re-raises
        // worker panics on the submitting thread — this one) must not
        // kill the dispatcher: the client would block forever on a
        // never-finished stream, the live-dir pin would leak, and the
        // daemon would lose a dispatcher slot for the rest of its life.
        let id = submission.id.clone();
        let dir = submission.dir.clone();
        let queue = Arc::clone(&submission.queue);
        if catch_unwind(AssertUnwindSafe(|| run_submission(inner, submission))).is_err() {
            inner.metrics.counter("serve.campaigns_failed").add(1);
            inner.live_dirs.lock().remove(&dir);
            queue.push(ServerFrame::Error {
                detail: format!("campaign {id} panicked server-side"),
            });
            queue.finish();
        }
        inner.state.lock().active -= 1;
    }
}

/// Runs one admitted campaign on the shared executor, streaming records
/// through the tee and closing the client's stream with `Done`/`Error`.
fn run_submission(inner: &Arc<Inner>, submission: Submission) {
    let Submission {
        id,
        spec,
        dir,
        queue,
    } = submission;
    let total = spec.expand().map(|grid| grid.len() as u64).unwrap_or(0);
    let tee = Arc::new(ClientTee {
        campaign: id.clone(),
        total,
        done: AtomicU64::new(0),
        queue: Arc::clone(&queue),
        inner: Arc::clone(inner),
    });
    let campaign = Campaign::new(spec, &dir)
        .executor(inner.executor.clone())
        .tee(tee);
    let mut merged = MetricsSnapshot::default();
    let result = campaign.run_with_progress(|_, _, record| {
        merged.merge(&record.metrics);
    });
    insert_bounded(
        &mut inner.campaigns.lock(),
        id.clone(),
        merged,
        MAX_CAMPAIGN_SNAPSHOTS,
    );
    inner.live_dirs.lock().remove(&dir);
    match result {
        Ok(report) => {
            inner.metrics.counter("serve.campaigns_completed").add(1);
            queue.push(ServerFrame::Done {
                campaign: id,
                executed: report.executed as u64,
                failed: report.failed as u64,
                complete: report.complete,
            });
        }
        Err(error) => {
            inner.metrics.counter("serve.campaigns_failed").add(1);
            queue.push(ServerFrame::Error {
                detail: error.to_string(),
            });
        }
    }
    queue.finish();
}

/// Writes a terminal frame on a connection that is about to close.
/// The client may already be gone, so the write error does not change
/// control flow — but its rate is operator signal, so it is counted
/// rather than swallowed.
fn send_final(inner: &Inner, writer: &mut BufWriter<TcpStream>, frame: &ServerFrame) {
    if write_frame(writer, frame).is_err() {
        inner.metrics.counter("serve.write_errors").add(1);
    }
}

/// Decrements the active-client count however the connection ends.
struct ClientGuard<'a>(&'a Inner);

impl Drop for ClientGuard<'_> {
    fn drop(&mut self) {
        self.0.active_clients.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    inner.metrics.counter("serve.clients_total").add(1);
    inner.active_clients.fetch_add(1, Ordering::Relaxed);
    let _guard = ClientGuard(inner);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort latency hint; correct (just slower) without it"
    )]
    let _ = stream.set_nodelay(true);
    #[expect(
        clippy::let_underscore_must_use,
        reason = "best-effort tuning; a stalled handshake only pins one thread"
    )]
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        inner.config.handshake_timeout_ms.max(1),
    )));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    // Handshake: exact version match or a typed rejection.
    match read_frame::<ClientFrame>(&mut reader) {
        Ok(Some(ClientFrame::Hello { version })) if version == PROTOCOL_VERSION => {
            let welcome = ServerFrame::Welcome {
                version: PROTOCOL_VERSION,
                server: format!("eaao-serve/{}", env!("CARGO_PKG_VERSION")),
            };
            if write_frame(&mut writer, &welcome).is_err() {
                return;
            }
        }
        Ok(Some(ClientFrame::Hello { version })) => {
            send_final(
                inner,
                &mut writer,
                &ServerFrame::Rejected {
                    reason: "version".to_owned(),
                    detail: format!(
                        "client speaks protocol {version}, server speaks {PROTOCOL_VERSION}"
                    ),
                },
            );
            return;
        }
        _ => {
            send_final(
                inner,
                &mut writer,
                &ServerFrame::Rejected {
                    reason: "protocol".to_owned(),
                    detail: "the first frame must be Hello".to_owned(),
                },
            );
            return;
        }
    }

    match read_frame::<ClientFrame>(&mut reader) {
        Ok(Some(ClientFrame::Submit { spec, out })) => {
            handle_submit(inner, &mut writer, &spec, out.as_deref());
        }
        Ok(Some(ClientFrame::Shutdown)) => {
            // Drain first, acknowledge second: once a client sees
            // ShuttingDown, any later submission is guaranteed to be
            // rejected, not racily admitted.
            inner.begin_shutdown();
            send_final(inner, &mut writer, &ServerFrame::ShuttingDown);
        }
        Ok(Some(ClientFrame::Hello { .. })) => {
            send_final(
                inner,
                &mut writer,
                &ServerFrame::Rejected {
                    reason: "protocol".to_owned(),
                    detail: "duplicate Hello".to_owned(),
                },
            );
        }
        Ok(None) | Err(_) => {}
    }
}

fn handle_submit(
    inner: &Arc<Inner>,
    writer: &mut BufWriter<TcpStream>,
    spec_json: &str,
    out: Option<&str>,
) {
    let reject = |writer: &mut BufWriter<TcpStream>, reason: &str, detail: String| {
        inner.metrics.counter("serve.submissions_rejected").add(1);
        send_final(
            inner,
            writer,
            &ServerFrame::Rejected {
                reason: reason.to_owned(),
                detail,
            },
        );
    };
    if inner.draining.load(Ordering::SeqCst) {
        reject(writer, "draining", "the server is shutting down".to_owned());
        return;
    }
    let spec = match CampaignSpec::from_json(spec_json) {
        Ok(spec) => spec,
        Err(error) => {
            reject(writer, "spec", error.to_string());
            return;
        }
    };
    let total = match spec.expand() {
        Ok(grid) => grid.len() as u64,
        Err(error) => {
            reject(writer, "spec", error.to_string());
            return;
        }
    };
    let id = inner.assign_id();
    let dir = match out {
        Some(name) => {
            if name.is_empty() || name.contains(['/', '\\']) || name.contains("..") {
                reject(
                    writer,
                    "spec",
                    format!("out must be a bare directory name, got {name:?}"),
                );
                return;
            }
            inner.config.out_root.join(name)
        }
        None => inner.config.out_root.join(format!("{id}-{}", spec.name)),
    };
    // Two campaigns appending to one results.jsonl would interleave
    // their records into garbage; the live-writer registry makes that a
    // typed rejection instead.
    if !inner.live_dirs.lock().insert(dir.clone()) {
        reject(
            writer,
            "dir-busy",
            format!("{} already has a live writer", dir.display()),
        );
        return;
    }
    // Refuse to clobber a prior campaign's on-disk output: the engine
    // starts every non-resumed campaign clean, which would silently
    // delete the existing results. Checked after the live-writer insert
    // so a concurrent writer reports `dir-busy`, not `dir-exists`.
    if ["campaign.json", "results.jsonl", "manifest.jsonl"]
        .iter()
        .any(|name| dir.join(name).exists())
    {
        inner.live_dirs.lock().remove(&dir);
        reject(
            writer,
            "dir-exists",
            format!("{} already holds campaign output", dir.display()),
        );
        return;
    }
    let queue = Arc::new(OutboundQueue::new(
        inner.config.outbound_capacity,
        Duration::from_millis(inner.config.slow_consumer_ms.max(1)),
    ));
    {
        let mut state = inner.state.lock();
        if state.shutdown {
            drop(state);
            inner.live_dirs.lock().remove(&dir);
            reject(writer, "draining", "the server is shutting down".to_owned());
            return;
        }
        if state.pending.len() >= inner.config.max_pending {
            let queued = state.pending.len() as u64;
            drop(state);
            inner.live_dirs.lock().remove(&dir);
            inner.metrics.counter("serve.submissions_busy").add(1);
            send_final(
                inner,
                writer,
                &ServerFrame::Busy {
                    queued,
                    capacity: inner.config.max_pending as u64,
                },
            );
            return;
        }
        state.pending.push_back(Submission {
            id: id.clone(),
            spec,
            dir,
            queue: Arc::clone(&queue),
        });
        inner.dispatch.notify_one();
    }
    inner.metrics.counter("serve.submissions_accepted").add(1);
    if write_frame(
        writer,
        &ServerFrame::Accepted {
            campaign: id,
            total,
        },
    )
    .is_err()
    {
        queue.mark_dropped();
        return;
    }
    // Become the stream's writer: drain the outbound queue until the
    // dispatcher finishes it (or the socket dies).
    while let Some(frame) = queue.pop() {
        if write_frame(writer, &frame).is_err() {
            queue.mark_dropped();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_consumer_is_dropped_after_the_grace_period() {
        let queue = OutboundQueue::new(1, Duration::from_millis(20));
        assert!(queue.push(ServerFrame::ShuttingDown));
        // Queue full and nobody popping: the next push waits out the
        // grace period, then abandons the consumer.
        assert!(!queue.push(ServerFrame::ShuttingDown));
        assert!(queue.dropped());
        assert!(queue.pop().is_none());
        // Later pushes fail fast instead of waiting again.
        assert!(!queue.push(ServerFrame::ShuttingDown));
    }

    #[test]
    fn finish_lets_the_consumer_drain_then_stop() {
        let queue = OutboundQueue::new(4, Duration::from_millis(20));
        assert!(queue.push(ServerFrame::ShuttingDown));
        queue.finish();
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none());
    }

    #[test]
    fn campaign_snapshots_evict_oldest_past_the_bound() {
        let mut campaigns = BTreeMap::new();
        for seq in 1..=5u64 {
            insert_bounded(
                &mut campaigns,
                format!("c{seq:04}"),
                MetricsSnapshot::default(),
                3,
            );
        }
        let kept: Vec<&String> = campaigns.keys().collect();
        assert_eq!(kept, ["c0003", "c0004", "c0005"]);
    }

    #[test]
    fn mark_dropped_unblocks_a_waiting_producer() {
        let queue = Arc::new(OutboundQueue::new(1, Duration::from_secs(30)));
        assert!(queue.push(ServerFrame::ShuttingDown));
        let producer = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(ServerFrame::ShuttingDown))
        };
        std::thread::sleep(Duration::from_millis(30));
        queue.mark_dropped();
        assert!(!producer.join().expect("producer thread"));
    }
}
