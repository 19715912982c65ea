//! `edge-market serve` — the event-sourced serving daemon.
//!
//! The daemon runs the paper's online setting (Alg. 2) as an
//! [`AuctionService`] state machine: seeded base workloads per stage,
//! wire-submitted bids/demand/defaults merged on top, rounds closed on
//! the daemon's cadence, and *every accepted event* appended to a
//! digest-chained JSONL event log (`--event-log`). The log is the
//! source of truth: `edge-market replay <log.jsonl>` re-executes the
//! run offline and reproduces outcome digests and deterministic trace
//! sections byte-identically.
//!
//! Endpoints on the dependency-free `std::net` HTTP server:
//!
//! * `GET /metrics`  — the process-global metric registry in Prometheus
//!   text format ([`edge_telemetry::registry`]); all families are
//!   preregistered at startup (auction, recovery, sim, pricing,
//!   service, plus the federation `edge_fed_*` and network
//!   `edge_net_*` families) so a scrape before the first event still
//!   shows every series at zero;
//! * `GET /healthz`  — `ok` while the daemon lives;
//! * `GET /status`   — JSON: stages/rounds completed, sellers alive,
//!   last-round outcome digest, scrape count;
//! * `POST /v1/bid`, `/v1/bid/withdraw`, `/v1/demand`,
//!   `/v1/round/close`, `/v1/default` — the line-delimited wire API.
//!   Bodies are single JSON objects; replies are single JSON objects
//!   (`{"ok":true,"seq":…,"digest":…}` or
//!   `{"ok":false,"error":…,"message":…}`).
//!
//! **Admission control & backpressure.** Hostile input never reaches
//! the auction: oversized bodies are refused at the socket (413), bad
//! UTF-8 and malformed JSON are 400s, unknown `/v2/…` versions are
//! 404s, and events failing the service's admission checks (unknown
//! sellers, duplicate bid ids, negative prices, book/demand caps) get
//! the structured [`ServiceError`] code with the book digest untouched.
//! Ingress is a bounded queue: when it is full the daemon answers 429
//! and drops the event — rejected events are never logged, so
//! determinism of the accepted sequence is unaffected.
//!
//! **Determinism guarantee.** The GET endpoints only *read* (registry
//! atomics, the status mutex, the shutdown flag); the POST endpoints
//! only *enqueue*. Every state transition happens on the drive thread,
//! in log order — so auction outcomes and the deterministic trace
//! section are a pure function of (header config, event sequence),
//! byte-identical live or replayed, with the server on or off, at any
//! pricing pool size.
//!
//! Every stage derives its RNG as `derive_rng(seed + stage, "cli-serve")`
//! and runs the recovery pipeline; with no wire events the fault plan
//! is empty and stages are bit-identical to plain MSOA (PR 2's
//! invariant, preserved since).

use crate::commands::CliError;
use edge_auction::service::{AuctionService, LogWriter, ServiceConfig, ServiceError, ServiceEvent};
use edge_bench::scenario::integrated_instance;
use edge_common::rng::derive_rng;
use edge_sim::engine::SimConfig;
use edge_telemetry::registry::global;
use edge_telemetry::{Collector, Counter, Gauge};
use edge_workload::params::PaperParams;
use std::io::{Read as _, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Largest request body the wire API accepts, bytes.
pub const MAX_BODY_BYTES: usize = 8 * 1024;

/// Parsed `serve` configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Base RNG seed; stage `k` derives from `seed + k`.
    pub seed: u64,
    /// Microservices (sellers) per stage.
    pub microservices: usize,
    /// Target request arrivals per simulated round.
    pub requests: u64,
    /// Total auction rounds to drive before exiting (0 = run forever).
    pub total_rounds: u64,
    /// Rounds per generated stage instance.
    pub stage_rounds: u64,
    /// Pause between stages, milliseconds (ingress drains throughout).
    pub interval_ms: u64,
    /// Admission cap on standing book entries.
    pub book_cap: usize,
    /// Admission cap on pending (unclosed) demand units.
    pub demand_cap: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 42,
            microservices: 25,
            requests: 100,
            total_rounds: 0,
            stage_rounds: 5,
            interval_ms: 0,
            book_cap: 4096,
            demand_cap: 1_000_000,
        }
    }
}

impl ServeConfig {
    /// The [`ServiceConfig`] this serve run records in its log header.
    #[must_use]
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            seed: self.seed,
            microservices: self.microservices,
            requests: self.requests,
            total_rounds: self.total_rounds,
            stage_rounds: self.stage_rounds,
            book_cap: self.book_cap,
            demand_cap: self.demand_cap,
        }
    }
}

/// The seeded per-stage base-instance provider `serve` and `replay`
/// share: stage `k` over `rounds` rounds is `integrated_instance` on
/// the paper parameters, seeded `derive_rng(seed + k, "cli-serve")` —
/// a pure function of its arguments, which is what makes a log replay
/// byte-identical to the live run that wrote it.
pub fn stage_provider(
    config: ServiceConfig,
) -> impl FnMut(u64, u64) -> edge_auction::msoa::MultiRoundInstance {
    move |stage, rounds| {
        let params = PaperParams::default()
            .with_microservices(config.microservices)
            .with_rounds(rounds)
            .with_requests(config.requests);
        let mut rng = derive_rng(config.seed.wrapping_add(stage), "cli-serve");
        integrated_instance(&params, SimConfig::default(), &mut rng)
    }
}

/// Opens `path` for writing and emits the event-log header record.
///
/// # Errors
///
/// I/O failures creating or writing the file.
pub fn new_log_writer(
    path: &str,
    config: &ServiceConfig,
) -> Result<LogWriter<std::io::BufWriter<std::fs::File>>, CliError> {
    let file = std::fs::File::create(path)?;
    Ok(LogWriter::new(std::io::BufWriter::new(file), config)?)
}

/// A hook the drive loop invokes after every completed stage, with the
/// number of stages completed so far. Runs on the drive thread, so a
/// blocking hook *is* a barrier: the next stage cannot start until the
/// hook returns. Tests use this to rendezvous with concurrent scrapers
/// deterministically instead of sleeping and hoping.
pub type StageHook = Box<dyn Fn(u64) + Send>;

/// Shared daemon state the HTTP threads read and the drive loop writes.
#[derive(Default)]
pub struct ServeState {
    status: Mutex<StatusInner>,
    scrapes: Counter,
    shutdown: AtomicBool,
    stage_hook: Mutex<Option<StageHook>>,
}

impl std::fmt::Debug for ServeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeState")
            .field("status", &self.status)
            .field("scrapes", &self.scrapes)
            .field("shutdown", &self.shutdown)
            .field(
                "stage_hook",
                &self
                    .stage_hook
                    .lock()
                    .map(|h| h.is_some())
                    .unwrap_or_default(),
            )
            .finish()
    }
}

#[derive(Debug, Default, Clone)]
struct StatusInner {
    serving: bool,
    stages: u64,
    rounds: u64,
    events: u64,
    sellers_alive: usize,
    sellers_total: usize,
    last_digest: String,
}

impl ServeState {
    /// Fresh state, not yet serving.
    pub fn new() -> Self {
        ServeState::default()
    }

    /// Installs the inter-stage hook (see [`StageHook`]).
    pub fn set_stage_hook(&self, hook: impl Fn(u64) + Send + 'static) {
        *self.stage_hook.lock().expect("stage hook lock poisoned") = Some(Box::new(hook));
    }

    /// Signals the drive loop and HTTP accept loop to exit.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The `/status` payload: hand-built JSON from a mutex snapshot.
    pub fn status_json(&self) -> String {
        let inner = self.status.lock().expect("status lock poisoned").clone();
        format!(
            "{{\"serving\":{},\"stages\":{},\"rounds\":{},\"events\":{},\
             \"sellers_alive\":{},\"sellers_total\":{},\"last_digest\":\"{}\",\"scrapes\":{}}}",
            inner.serving,
            inner.stages,
            inner.rounds,
            inner.events,
            inner.sellers_alive,
            inner.sellers_total,
            inner.last_digest,
            self.scrapes.get()
        )
    }
}

/// Summary of a finished drive loop.
#[derive(Debug, Clone)]
pub struct DriveSummary {
    /// Stages completed.
    pub stages: u64,
    /// Auction rounds completed.
    pub rounds: u64,
    /// Events accepted (wire and daemon round-closes alike).
    pub events: u64,
    /// Digest of the final stage's outcome (hex), if any stage ran.
    pub last_digest: Option<String>,
}

/// One wire event in flight from an HTTP thread to the drive loop.
#[derive(Debug)]
pub struct IngressMsg {
    /// The parsed event.
    pub event: ServiceEvent,
    /// Where the drive loop sends the outcome.
    pub reply: SyncSender<IngressReply>,
}

/// The drive loop's answer to one ingress message.
#[derive(Debug, Clone)]
pub enum IngressReply {
    /// The event was applied (and logged when a log is attached).
    Accepted {
        /// Log sequence number (event count when no log is attached).
        seq: u64,
        /// Log record digest (service state digest when no log).
        digest: String,
    },
    /// Admission control refused the event; state untouched.
    Rejected {
        /// Stable error code ([`ServiceError::code`]).
        code: &'static str,
        /// Human-readable detail.
        message: String,
    },
}

/// Registry handles for the wire-ingress families.
#[derive(Debug)]
struct IngressLive {
    queue_depth: Arc<Gauge>,
}

impl IngressLive {
    fn handle() -> Self {
        IngressLive {
            queue_depth: global().gauge(
                "edge_service_queue_depth",
                "Wire events waiting in the bounded ingress queue",
                &[],
            ),
        }
    }

    fn rejected(reason: &str) {
        global()
            .counter(
                "edge_service_rejected_total",
                "Wire events refused by admission control or backpressure",
                &[("reason", reason)],
            )
            .incr();
    }
}

/// Registers the ingress families (at zero) so the first scrape shows
/// them; `serve` calls this alongside the auction/recovery catalogs.
pub fn preregister_ingress() {
    let live = IngressLive::handle();
    live.queue_depth.set(0.0);
    for reason in ["backpressure", "malformed", "oversized_body", "bad_utf8"] {
        let _ = global().counter(
            "edge_service_rejected_total",
            "Wire events refused by admission control or backpressure",
            &[("reason", reason)],
        );
    }
}

/// Drives the event-sourced service until `total_rounds` rounds have
/// closed (or forever when it is 0), updating `state` after every
/// stage. Equivalent to [`drive_service`] with no ingress and no log —
/// the monitoring-only mode of old, byte-identical outcomes included.
pub fn drive(
    config: &ServeConfig,
    state: &ServeState,
    collector: Option<&Collector>,
) -> Result<DriveSummary, CliError> {
    drive_service::<std::io::Sink>(config, state, collector, None, &mut None)
}

/// Drives the event-sourced service: drains `ingress` between round
/// closes, applies every accepted event to the [`AuctionService`],
/// appends it to `log`, and replies to wire callers. The HTTP server
/// never touches service state — it only enqueues — so the accepted
/// event sequence in the log fully determines every outcome.
pub fn drive_service<W: Write>(
    config: &ServeConfig,
    state: &ServeState,
    collector: Option<&Collector>,
    ingress: Option<Receiver<IngressMsg>>,
    log: &mut Option<LogWriter<W>>,
) -> Result<DriveSummary, CliError> {
    {
        let mut inner = state.status.lock().expect("status lock poisoned");
        inner.serving = true;
        inner.sellers_total = config.microservices;
    }
    let ingress_live = IngressLive::handle();
    let mut svc = AuctionService::new(
        config.service_config(),
        stage_provider(config.service_config()),
    );
    let mut last_digest = None;

    'drive: while !state.shutting_down() {
        if config.total_rounds > 0 && svc.rounds_closed() >= config.total_rounds {
            break;
        }
        drain_ingress(&ingress, &mut svc, collector, log, &ingress_live)?;
        if state.shutting_down() {
            break;
        }

        // The daemon's own cadence: close the round. Wire clients may
        // also close rounds; either way the close is just an event.
        let applied = match svc.apply(&ServiceEvent::RoundClosed, collector) {
            Ok(applied) => applied,
            // A wire client closed the last round while we drained.
            Err(ServiceError::HorizonComplete) => break,
            Err(e) => return Err(e.into()),
        };
        if let Some(writer) = log.as_mut() {
            writer.append(&ServiceEvent::RoundClosed)?;
        }

        if let Some(stage) = applied.stage {
            last_digest = Some(stage.outcome_digest.clone());
            {
                let mut inner = state.status.lock().expect("status lock poisoned");
                inner.stages = svc.stages_completed();
                inner.rounds = svc.rounds_closed();
                inner.events = svc.events_applied();
                inner.sellers_alive = stage.sellers_alive;
                inner.last_digest = stage.outcome_digest;
            }
            {
                let hook = state.stage_hook.lock().expect("stage hook lock poisoned");
                if let Some(hook) = hook.as_ref() {
                    hook(svc.stages_completed());
                }
            }
            // Sleep between stages in short slices, draining ingress
            // throughout so wire clients never starve.
            let mut slept = 0u64;
            while slept < config.interval_ms && !state.shutting_down() {
                drain_ingress(&ingress, &mut svc, collector, log, &ingress_live)?;
                if config.total_rounds > 0 && svc.rounds_closed() >= config.total_rounds {
                    break 'drive;
                }
                std::thread::sleep(Duration::from_millis(1));
                slept += 1;
            }
        }
    }

    {
        let mut inner = state.status.lock().expect("status lock poisoned");
        inner.serving = false;
        inner.events = svc.events_applied();
    }
    Ok(DriveSummary {
        stages: svc.stages_completed(),
        rounds: svc.rounds_closed(),
        events: svc.events_applied(),
        last_digest: last_digest.or_else(|| svc.last_outcome_digest_hex()),
    })
}

/// Applies every queued ingress message, logging and replying.
fn drain_ingress<W: Write, P: FnMut(u64, u64) -> edge_auction::msoa::MultiRoundInstance>(
    ingress: &Option<Receiver<IngressMsg>>,
    svc: &mut AuctionService<P>,
    collector: Option<&Collector>,
    log: &mut Option<LogWriter<W>>,
    live: &IngressLive,
) -> Result<(), CliError> {
    let Some(rx) = ingress else { return Ok(()) };
    while let Ok(msg) = rx.try_recv() {
        live.queue_depth.add(-1.0);
        let reply = match svc.apply(&msg.event, collector) {
            Ok(_) => {
                let (seq, digest) = match log.as_mut() {
                    Some(writer) => {
                        let (seq, digest) = writer.append(&msg.event)?;
                        (seq, format!("{digest:016x}"))
                    }
                    None => (svc.events_applied(), svc.state_digest_hex()),
                };
                IngressReply::Accepted { seq, digest }
            }
            Err(ServiceError::Auction(e)) => return Err(e.into()),
            Err(e) => {
                IngressLive::rejected(e.code());
                IngressReply::Rejected {
                    code: e.code(),
                    message: e.to_string(),
                }
            }
        };
        // The HTTP thread may have timed out and gone; that's its loss.
        let _ = msg.reply.try_send(reply);
    }
    Ok(())
}

/// Starts the read-only HTTP server (no wire ingest) on
/// `127.0.0.1:port` (0 = ephemeral). Returns the bound address and the
/// accept-loop join handle; the loop exits once
/// [`ServeState::request_shutdown`] is called.
pub fn start_http(
    state: Arc<ServeState>,
    port: u16,
) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    start_http_with_ingest(state, port, None)
}

/// Starts the HTTP server with an optional bounded ingress sender for
/// the `POST /v1/*` wire API. Without one, POSTs answer 503.
pub fn start_http_with_ingest(
    state: Arc<ServeState>,
    port: u16,
    ingest: Option<SyncSender<IngressMsg>>,
) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = std::thread::spawn(move || {
        while !state.shutting_down() {
            match listener.accept() {
                Ok((stream, _)) => handle_connection(stream, &state, ingest.as_ref()),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
    });
    Ok((addr, handle))
}

/// Serves one request. GETs are read-only against the daemon state;
/// POSTs enqueue onto the bounded ingress queue and wait for the drive
/// loop's verdict. Any I/O error just drops the connection.
fn handle_connection(
    mut stream: TcpStream,
    state: &ServeState,
    ingest: Option<&SyncSender<IngressMsg>>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let mut head_end = None;
    // Read until the end of the request head.
    while head_end.is_none() && buf.len() < 16 * 1024 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                head_end = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
            }
            Err(_) => return,
        }
    }
    let Some(head_end) = head_end else { return };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("/").to_owned();

    let (status, content_type, body) = match (method.as_str(), path.as_str()) {
        ("GET", "/metrics") => {
            state.scrapes.incr();
            (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                global().render(),
            )
        }
        ("GET", "/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned()),
        ("GET", "/status") => {
            state.scrapes.incr();
            (
                "200 OK",
                "application/json; charset=utf-8",
                state.status_json(),
            )
        }
        ("POST", p) if p.starts_with("/v1/") => {
            let (status, body) = handle_post(&mut stream, &head, head_end, &buf, p, ingest);
            (status, "application/json; charset=utf-8", body)
        }
        ("POST", p) if p.starts_with("/v") => (
            "404 Not Found",
            "application/json; charset=utf-8",
            reject_json("unsupported_version", &format!("no API version at {p}")),
        ),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            format!("no route for {path}\n"),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// A `{"ok":false,…}` rejection body. The message is JSON-escaped the
/// cheap way: codes and admission errors never contain quotes.
fn reject_json(code: &str, message: &str) -> String {
    let clean: String = message
        .chars()
        .map(|c| {
            if c == '"' || c == '\\' || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect();
    format!("{{\"ok\":false,\"error\":\"{code}\",\"message\":\"{clean}\"}}")
}

/// Reads the body and runs one wire event through ingress. Returns
/// `(HTTP status, JSON body)`.
fn handle_post(
    stream: &mut TcpStream,
    head: &str,
    head_end: usize,
    buf: &[u8],
    path: &str,
    ingest: Option<&SyncSender<IngressMsg>>,
) -> (&'static str, String) {
    let Some(ingest) = ingest else {
        return (
            "503 Service Unavailable",
            reject_json("ingest_disabled", "this daemon does not accept wire events"),
        );
    };
    let content_length = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        })
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        IngressLive::rejected("oversized_body");
        return (
            "413 Payload Too Large",
            reject_json(
                "oversized_body",
                &format!("{content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"),
            ),
        );
    }
    let mut body = buf[head_end..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    body.truncate(content_length);
    let Ok(text) = String::from_utf8(body) else {
        IngressLive::rejected("bad_utf8");
        return (
            "400 Bad Request",
            reject_json("bad_utf8", "request body is not valid UTF-8"),
        );
    };
    let event = match parse_wire_event(path, &text) {
        Ok(event) => event,
        Err(detail) => {
            IngressLive::rejected("malformed");
            return ("400 Bad Request", reject_json("malformed", detail));
        }
    };

    let (reply_tx, reply_rx) = std::sync::mpsc::sync_channel(1);
    let msg = IngressMsg {
        event,
        reply: reply_tx,
    };
    match ingest.try_send(msg) {
        Ok(()) => IngressLive::handle().queue_depth.add(1.0),
        Err(TrySendError::Full(_)) => {
            IngressLive::rejected("backpressure");
            return (
                "429 Too Many Requests",
                reject_json("backpressure", "the ingress queue is full; retry later"),
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            return (
                "503 Service Unavailable",
                reject_json("shutting_down", "the drive loop has exited"),
            );
        }
    }
    match reply_rx.recv_timeout(Duration::from_secs(10)) {
        Ok(IngressReply::Accepted { seq, digest }) => (
            "200 OK",
            format!("{{\"ok\":true,\"seq\":{seq},\"digest\":\"{digest}\"}}"),
        ),
        Ok(IngressReply::Rejected { code, message }) => {
            ("400 Bad Request", reject_json(code, &message))
        }
        Err(_) => (
            "503 Service Unavailable",
            reject_json("shutting_down", "the drive loop did not answer"),
        ),
    }
}

/// Parses a `POST /v1/*` body into its [`ServiceEvent`].
///
/// # Errors
///
/// A static description of what is malformed or unroutable.
pub fn parse_wire_event(path: &str, body: &str) -> Result<ServiceEvent, &'static str> {
    let trimmed = body.trim();
    let value: serde::Value = if trimmed.is_empty() {
        serde::Value::Object(Vec::new())
    } else {
        serde_json::from_str(trimmed).map_err(|_| "body is not a JSON object")?
    };
    if !matches!(value, serde::Value::Object(_)) {
        return Err("body is not a JSON object");
    }
    let u64_field = |name: &str| -> Result<u64, &'static str> {
        match value.get(name) {
            Some(serde::Value::U64(u)) => Ok(*u),
            _ => Err("missing or non-integer field"),
        }
    };
    let f64_field = |name: &str| -> Result<f64, &'static str> {
        value
            .get(name)
            .and_then(serde::Value::as_f64)
            .ok_or("missing or non-numeric field")
    };
    match path {
        "/v1/bid" => Ok(ServiceEvent::BidSubmitted {
            seller: usize::try_from(u64_field("seller")?).map_err(|_| "seller out of range")?,
            bid: u64_field("bid")?,
            amount: u64_field("amount")?,
            price: f64_field("price")?,
        }),
        "/v1/bid/withdraw" => Ok(ServiceEvent::BidWithdrawn {
            seller: usize::try_from(u64_field("seller")?).map_err(|_| "seller out of range")?,
            bid: u64_field("bid")?,
        }),
        "/v1/demand" => Ok(ServiceEvent::DemandReported {
            units: u64_field("units")?,
        }),
        "/v1/round/close" => Ok(ServiceEvent::RoundClosed),
        "/v1/default" => Ok(ServiceEvent::SellerDefaulted {
            seller: usize::try_from(u64_field("seller")?).map_err(|_| "seller out of range")?,
            delivered_fraction: f64_field("delivered_fraction")?,
        }),
        _ => Err("no such endpoint"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edge_auction::service::fnv1a64;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("full response");
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn drive_reaches_the_round_target_and_digests() {
        let state = ServeState::new();
        let config = ServeConfig {
            total_rounds: 4,
            stage_rounds: 3,
            microservices: 8,
            ..ServeConfig::default()
        };
        let summary = drive(&config, &state, None).unwrap();
        assert_eq!(summary.rounds, 4, "3-round stage then 1-round stage");
        assert_eq!(summary.stages, 2);
        let digest = summary.last_digest.unwrap();
        assert_eq!(digest.len(), 16);
        let status = state.status_json();
        assert!(status.contains("\"rounds\":4"), "{status}");
        assert!(status.contains(&digest), "{status}");
        assert!(status.contains("\"serving\":false"), "{status}");
    }

    #[test]
    fn drive_is_deterministic_across_runs() {
        let config = ServeConfig {
            total_rounds: 3,
            stage_rounds: 3,
            microservices: 6,
            ..ServeConfig::default()
        };
        let a = drive(&config, &ServeState::new(), None).unwrap();
        let b = drive(&config, &ServeState::new(), None).unwrap();
        assert_eq!(a.last_digest, b.last_digest);
    }

    #[test]
    fn drive_matches_the_legacy_seeded_stage_loop() {
        // The event-sourced drive with no wire events must reproduce
        // the pre-service seeded loop bit for bit: provider instance,
        // empty fault plan, pinned α, same digest formula.
        let config = ServeConfig {
            total_rounds: 4,
            stage_rounds: 3,
            microservices: 8,
            ..ServeConfig::default()
        };
        let summary = drive(&config, &ServeState::new(), None).unwrap();

        use edge_auction::msoa::MsoaConfig;
        use edge_auction::recovery::{run_msoa_with_faults_traced, FaultPlan, RecoveryConfig};
        let mut provider = stage_provider(config.service_config());
        let mut last = None;
        let mut rounds_done = 0u64;
        let mut stage = 0u64;
        while rounds_done < config.total_rounds {
            let rounds = config.stage_rounds.min(config.total_rounds - rounds_done);
            let instance = provider(stage, rounds);
            let outcome = run_msoa_with_faults_traced(
                &instance,
                &MsoaConfig::pinned(2.0),
                &FaultPlan::empty(),
                &RecoveryConfig::default(),
                edge_telemetry::Trace::off(),
            )
            .unwrap();
            let serialized = serde_json::to_string(&outcome).unwrap();
            last = Some(format!("{:016x}", fnv1a64(serialized.as_bytes())));
            rounds_done += rounds;
            stage += 1;
        }
        assert_eq!(summary.last_digest, last);
    }

    #[test]
    fn http_routes_respond_and_shutdown_joins() {
        let state = Arc::new(ServeState::new());
        let (addr, handle) = start_http(Arc::clone(&state), 0).unwrap();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("version=0.0.4"), "{head}");
        edge_telemetry::registry::validate_exposition(&body).expect("scrape validates");

        let (head, body) = get(addr, "/status");
        assert!(head.contains("application/json"), "{head}");
        assert!(body.starts_with('{') && body.ends_with('}'), "{body}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        // Scrape counter: /metrics + /status counted, /healthz not.
        assert_eq!(state.scrapes.get(), 2);

        state.request_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn posts_without_ingest_answer_503() {
        let state = Arc::new(ServeState::new());
        let (addr, handle) = start_http(Arc::clone(&state), 0).unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        let body = "{\"units\":3}";
        stream
            .write_all(
                format!(
                    "POST /v1/demand HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("ingest_disabled"), "{response}");
        state.request_shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn wire_event_parsing_covers_every_endpoint() {
        assert_eq!(
            parse_wire_event(
                "/v1/bid",
                "{\"seller\":2,\"bid\":1,\"amount\":3,\"price\":9.5}"
            ),
            Ok(ServiceEvent::BidSubmitted {
                seller: 2,
                bid: 1,
                amount: 3,
                price: 9.5
            })
        );
        assert_eq!(
            parse_wire_event("/v1/bid/withdraw", "{\"seller\":2,\"bid\":1}"),
            Ok(ServiceEvent::BidWithdrawn { seller: 2, bid: 1 })
        );
        assert_eq!(
            parse_wire_event("/v1/demand", "{\"units\":4}"),
            Ok(ServiceEvent::DemandReported { units: 4 })
        );
        assert_eq!(
            parse_wire_event("/v1/round/close", ""),
            Ok(ServiceEvent::RoundClosed)
        );
        assert_eq!(
            parse_wire_event("/v1/default", "{\"seller\":0,\"delivered_fraction\":0.25}"),
            Ok(ServiceEvent::SellerDefaulted {
                seller: 0,
                delivered_fraction: 0.25
            })
        );
        assert!(parse_wire_event("/v1/bid", "{\"seller\":2}").is_err());
        assert!(parse_wire_event("/v1/bid", "[1,2]").is_err());
        assert!(parse_wire_event("/v1/nope", "{}").is_err());
    }
}
