//! The HTTP front: routing, SSE streaming, and graceful drain.
//!
//! One thread accepts connections and hands each to a scoped handler
//! thread; a separate orchestrator thread runs campaigns FIFO (see
//! [`crate::orchestrator`]). `POST /shutdown` flips the draining flag,
//! answers, and self-connects to unblock the accept loop; the queue
//! sender is then dropped, the orchestrator finishes every queued job,
//! and [`Server::run`] returns. Nothing submitted is ever abandoned.
//!
//! # Routes
//!
//! | method & path | response |
//! |---|---|
//! | `GET /healthz` | `200 ok` |
//! | `POST /campaigns` | spec JSON in, `201` + status JSON (or `400`/`503` when draining) |
//! | `GET /campaigns` | listing of every job's status |
//! | `GET /campaigns/<job>` | one job's status JSON |
//! | `GET /campaigns/<job>/events` | live `text/event-stream` of progress lines |
//! | `GET /campaigns/<job>/records.jsonl` | the records, JSONL (`409` until done) |
//! | `GET /campaigns/<job>/records.csv` | the records, CSV, derived from the JSONL (memoized; `409` until done) |
//! | `GET /campaigns/<job>/metrics` | merged `ssr-metrics-v1` snapshot (`409` until done) |
//! | `GET /campaigns/<job>/report` | self-contained `ssr-report` HTML (memoized; `409` until done) |
//! | `POST /shutdown` | `200`, then drain and exit |

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ssr_campaign::{checkpoint, output, ScenarioRecord};
use ssr_obs::json;
use ssr_report::Artifacts;

use crate::http::{self, Request, SseWriter};
use crate::jobs::{Job, JobBoard, JobOutcome, JobPhase};
use crate::orchestrator::{self, Store};
use crate::spec;

/// How the server is wired up.
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Engine worker threads per campaign.
    pub threads: usize,
    /// Checkpoint journal path; `None` keeps the store in memory only.
    pub checkpoint: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            checkpoint: None,
        }
    }
}

struct Shared {
    board: JobBoard,
    store: Store,
    threads: usize,
    draining: AtomicBool,
    queue: Mutex<Option<Sender<Arc<Job>>>>,
}

/// A bound campaign service. [`Server::bind`] claims the port (so the
/// caller can learn an ephemeral address before any request exists);
/// [`Server::run`] blocks until a `POST /shutdown` finishes draining.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and opens (replaying) the checkpoint store.
    pub fn bind(config: ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let store = match config.checkpoint {
            Some(path) => Store::with_checkpoint(path)?,
            None => Store::in_memory(),
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                board: JobBoard::new(),
                store,
                threads: config.threads.max(1),
                draining: AtomicBool::new(false),
                queue: Mutex::new(None),
            }),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    /// Checkpoint entries replayed into the cache at boot.
    pub fn replayed(&self) -> usize {
        self.shared.store.replayed
    }

    /// Serves until shutdown completes. Every accepted connection, and
    /// every job's engine run, gets a scoped thread; the orchestrator
    /// drains the queue after the accept loop stops, so queued work
    /// always finishes.
    pub fn run(self) -> Result<(), String> {
        let (tx, rx) = orchestrator::queue();
        *self.shared.queue.lock().unwrap() = Some(tx);
        let shared = &self.shared;
        std::thread::scope(|scope| {
            let orchestrator = scope.spawn(move || {
                orchestrator::run_loop(scope, rx, &shared.store, shared.threads);
            });
            for stream in self.listener.incoming() {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                scope.spawn(move || handle_connection(stream, shared));
            }
            // Dropping the sender ends the orchestrator loop once the
            // queue drains.
            shared.queue.lock().unwrap().take();
            orchestrator
                .join()
                .map_err(|_| "orchestrator thread panicked".to_string())
        })
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let request = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            http::respond_text(&mut stream, 400, &e);
            return;
        }
    };
    route(&mut stream, &request, shared);
}

fn route(stream: &mut TcpStream, req: &Request, shared: &Shared) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => http::respond_text(stream, 200, "ok"),
        ("POST", "/campaigns") => submit(stream, req, shared),
        ("GET", "/campaigns") => http::respond_json(stream, 200, &shared.board.listing_json()),
        ("POST", "/shutdown") => shutdown(stream, shared),
        ("GET", path) => job_route(stream, path, shared),
        (_, _) => http::respond_text(stream, 405, "method not allowed"),
    }
}

fn submit(stream: &mut TcpStream, req: &Request, shared: &Shared) {
    if shared.draining.load(Ordering::SeqCst) {
        http::respond_text(stream, 503, "draining: no new campaigns");
        return;
    }
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => {
            http::respond_text(stream, 400, "spec must be UTF-8 JSON");
            return;
        }
    };
    let (id, campaign) = match spec::parse(text) {
        Ok(parsed) => parsed,
        Err(e) => {
            http::respond_text(stream, 400, &e);
            return;
        }
    };
    let job = shared.board.submit(&id, campaign);
    // Enqueue unless a racing shutdown already closed the queue.
    let enqueued = shared
        .queue
        .lock()
        .unwrap()
        .as_ref()
        .map(|tx| tx.send(job.clone()).is_ok())
        .unwrap_or(false);
    if !enqueued {
        job.set_phase(JobPhase::Failed("server is draining".to_string()));
        http::respond_text(stream, 503, "draining: no new campaigns");
        return;
    }
    http::respond_json(stream, 201, &job.status_json());
}

fn shutdown(stream: &mut TcpStream, shared: &Shared) {
    http::respond_text(stream, 200, "draining");
    shared.draining.store(true, Ordering::SeqCst);
    // Self-connect to pop the accept loop out of `incoming()`.
    if let Ok(addr) = stream.local_addr() {
        let _ = TcpStream::connect(addr);
    }
}

fn job_route(stream: &mut TcpStream, path: &str, shared: &Shared) {
    let Some(rest) = path.strip_prefix("/campaigns/") else {
        http::respond_text(stream, 404, "no such route");
        return;
    };
    let (job_id, endpoint) = match rest.split_once('/') {
        Some((id, ep)) => (id, ep),
        None => (rest, ""),
    };
    let Some(job) = shared.board.get(job_id) else {
        http::respond_text(stream, 404, &format!("no job {job_id:?}"));
        return;
    };
    match endpoint {
        "" => http::respond_json(stream, 200, &job.status_json()),
        "events" => stream_events(stream, &job),
        "records.jsonl" => {
            serve_artifact(stream, &job, "application/x-ndjson", |o| o.jsonl.clone())
        }
        "records.csv" => serve_derived(
            stream,
            &job,
            "text/csv; charset=utf-8",
            |o| &mut o.csv,
            |jsonl, _| csv_of(jsonl),
        ),
        "metrics" => serve_artifact(stream, &job, "application/json", |o| o.metrics_json.clone()),
        "report" => serve_derived(
            stream,
            &job,
            "text/html; charset=utf-8",
            |o| &mut o.report,
            |jsonl, metrics_json| report_of(&job, jsonl, metrics_json),
        ),
        _ => http::respond_text(stream, 404, &format!("no endpoint {endpoint:?}")),
    }
}

fn stream_events(stream: &mut TcpStream, job: &Job) {
    let bus = job.bus.clone();
    let mut sse = SseWriter::begin(stream);
    let mut cursor = 0usize;
    loop {
        // The bus wakes this reader on begin and finish only: a job's
        // items go out in one batch per 250-ms poll, or with the end.
        let (events, next) = bus.events_since(cursor, Duration::from_millis(250));
        cursor = next;
        sse.events(&events);
        if sse.is_dead() {
            return; // client went away; nothing left to say
        }
        if events.is_empty() && bus.snapshot().finished {
            break;
        }
        // A failed job never begins nor finishes its bus; bail out
        // rather than holding the socket forever.
        if matches!(job.phase(), JobPhase::Failed(_)) && events.is_empty() {
            break;
        }
    }
    sse.finish();
}

fn serve_artifact(
    stream: &mut TcpStream,
    job: &Job,
    content_type: &str,
    pick: impl Fn(&mut JobOutcome) -> Option<String>,
) {
    match job.with_outcome(pick) {
        Some(body) => http::respond(stream, 200, content_type, body.as_bytes()),
        None => http::respond_text(stream, 409, "campaign not finished"),
    }
}

/// Serves an artifact derived from a finished job's stored JSONL and
/// metrics snapshot: `derive` runs on the first request, outside the
/// job's lock, and its result is memoized in `slot`, so later requests
/// get the same bytes without rework.
fn serve_derived(
    stream: &mut TcpStream,
    job: &Job,
    content_type: &str,
    slot: fn(&mut JobOutcome) -> &mut Option<String>,
    derive: impl FnOnce(&str, &str) -> Result<String, String>,
) {
    if let Some(body) = job.with_outcome(|o| slot(o).clone()) {
        http::respond(stream, 200, content_type, body.as_bytes());
        return;
    }
    let inputs = job.with_outcome(|o| o.jsonl.clone().zip(o.metrics_json.clone()));
    let Some((jsonl, metrics_json)) = inputs else {
        http::respond_text(stream, 409, "campaign not finished");
        return;
    };
    match derive(&jsonl, &metrics_json) {
        Ok(body) => {
            job.with_outcome(|o| *slot(o) = Some(body.clone()));
            http::respond(stream, 200, content_type, body.as_bytes());
        }
        Err(e) => http::respond_text(stream, 500, &e),
    }
}

/// The CSV of a job's records, read back from its JSONL through the
/// checkpoint journal's record reader: the bytes [`output::csv`] gives
/// for the records the engine returned.
fn csv_of(jsonl: &str) -> Result<String, String> {
    let records: Vec<ScenarioRecord> = json::parse_jsonl(jsonl)
        .and_then(|lines| lines.iter().map(checkpoint::record_from_json).collect())
        .map_err(|e| format!("cannot read the stored records: {e}"))?;
    Ok(output::csv(&records))
}

/// The HTML report of a finished job: its records plus the merged
/// metrics snapshot, through the same [`ssr_report::render`] path the
/// offline `report` binary uses — so a served report is byte-identical
/// to one rendered from downloaded artifacts.
fn report_of(job: &Job, jsonl: &str, metrics_json: &str) -> Result<String, String> {
    let mut art = Artifacts::default();
    art.push_campaign_jsonl(&format!("{}.jsonl", job.id), jsonl)
        .and_then(|()| art.push_metrics_json(&format!("{}-metrics.json", job.id), metrics_json))
        .map_err(|e| format!("cannot assemble report: {e}"))?;
    Ok(ssr_report::render(&art))
}
