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
//! | `GET /campaigns/<job>/records.jsonl` | the records, JSONL, rendered from the stored records (`409` until done) |
//! | `GET /campaigns/<job>/records.csv` | the records, CSV, rendered from the stored records (`409` until done) |
//! | `GET /campaigns/<job>/metrics` | merged `ssr-metrics-v1` snapshot (`409` until done) |
//! | `GET /campaigns/<job>/report` | self-contained `ssr-report` HTML, rendered from the stored records and snapshot (`409` until done) |
//! | `POST /shutdown` | `200`, then drain and exit |
//!
//! A finished job stores its typed records and its metrics snapshot
//! ([`crate::jobs`]). Each artifact route takes what it needs out of
//! the job's lock — a clone of the records' `Arc` or of the snapshot
//! — and renders outside it, per request, with nothing memoized.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ssr_campaign::{output, ScenarioRecord};
use ssr_report::reader::CampaignRow;
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
        "records.jsonl" => serve_artifact(
            stream,
            &job,
            "application/x-ndjson",
            |o| o.records.clone(),
            |records| Ok(output::jsonl(&records)),
        ),
        "records.csv" => serve_artifact(
            stream,
            &job,
            "text/csv; charset=utf-8",
            |o| o.records.clone(),
            |records| Ok(output::csv(&records)),
        ),
        "metrics" => serve_artifact(
            stream,
            &job,
            "application/json",
            |o| o.metrics_json.clone(),
            Ok,
        ),
        "report" => serve_artifact(
            stream,
            &job,
            "text/html; charset=utf-8",
            |o| o.records.clone().zip(o.metrics_json.clone()),
            |(records, metrics_json)| report_of(&job.id, &records, &metrics_json),
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

/// Serves an artifact of a finished job: `pick` clones its inputs out
/// of the job's outcome under the lock (`None` until the job is done,
/// a `409`), and `render` makes the body from them outside it.
fn serve_artifact<T>(
    stream: &mut TcpStream,
    job: &Job,
    content_type: &str,
    pick: impl FnOnce(&mut JobOutcome) -> Option<T>,
    render: impl FnOnce(T) -> Result<String, String>,
) {
    let Some(inputs) = job.with_outcome(pick) else {
        http::respond_text(stream, 409, "campaign not finished");
        return;
    };
    match render(inputs) {
        Ok(body) => http::respond(stream, 200, content_type, body.as_bytes()),
        Err(e) => http::respond_text(stream, 500, &e),
    }
}

/// The HTML report of a finished job: its records plus the merged
/// metrics snapshot, through the same [`ssr_report::render`] path the
/// offline `report` binary uses, under the file names a download would
/// give them (`<job>.jsonl`, `<job>-metrics.json`) — so a served report
/// is byte-identical to one rendered from downloaded artifacts.
fn report_of(
    job_id: &str,
    records: &[ScenarioRecord],
    metrics_json: &str,
) -> Result<String, String> {
    let mut art = Artifacts::default();
    art.campaigns.push((
        format!("{job_id}.jsonl"),
        records.iter().map(campaign_row).collect(),
    ));
    art.push_metrics_json(&format!("{job_id}-metrics.json"), metrics_json)
        .map_err(|e| format!("cannot assemble report: {e}"))?;
    Ok(ssr_report::render(&art))
}

/// A record as the report reads it: the row
/// `ssr_report::reader::parse_campaign_jsonl` gives for the record's
/// JSONL line, built without the text in between.
fn campaign_row(rec: &ScenarioRecord) -> CampaignRow {
    CampaignRow {
        campaign: rec.campaign.clone(),
        index: rec.index as u64,
        topology: rec.topology.clone(),
        n: rec.n as u64,
        nodes: rec.nodes,
        edges: rec.edges,
        max_degree: rec.max_degree,
        diameter: rec.diameter,
        algorithm: rec.algorithm.clone(),
        daemon: rec.daemon.clone(),
        init: rec.init.clone(),
        trial: rec.trial,
        seed: rec.seed,
        reached: rec.reached,
        terminal: rec.terminal,
        reason: rec.reason.map(|r| r.as_str().to_string()),
        steps: rec.steps,
        moves: rec.moves,
        rounds: rec.rounds,
        max_moves_per_process: rec.max_moves_per_process,
        bound_rounds: rec.bound_rounds,
        bound_moves: rec.bound_moves,
        verdict: rec.verdict.as_str().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ssr_campaign::Verdict;
    use ssr_runtime::rng::Xoshiro256StarStar;
    use ssr_runtime::TerminationReason;

    /// A label with the characters that JSON escapes or that are not
    /// ASCII, possibly empty.
    fn label(rng: &mut Xoshiro256StarStar) -> String {
        const ALPHABET: &[char] = &[
            'a', 'Z', '0', ':', '(', ')', ',', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é', '∘',
        ];
        (0..rng.index(12)).map(|_| *rng.choose(ALPHABET)).collect()
    }

    fn bound(rng: &mut Xoshiro256StarStar) -> Option<u64> {
        *rng.choose(&[None, Some(0), Some(u64::MAX)])
    }

    fn record(rng: &mut Xoshiro256StarStar) -> ScenarioRecord {
        ScenarioRecord {
            index: rng.index(1 << 20),
            campaign: label(rng),
            topology: label(rng),
            n: rng.index(1 << 20),
            nodes: rng.next_u64(),
            edges: rng.next_u64(),
            max_degree: rng.next_u64(),
            diameter: rng.next_u64(),
            algorithm: label(rng),
            daemon: label(rng),
            init: label(rng),
            trial: rng.next_u64(),
            seed: rng.next_u64(),
            reached: rng.chance(0.5),
            terminal: rng.chance(0.5),
            reason: *rng.choose(&[
                None,
                Some(TerminationReason::Terminal),
                Some(TerminationReason::PredicateMet),
                Some(TerminationReason::CapExhausted),
            ]),
            steps: rng.next_u64(),
            moves: rng.next_u64(),
            rounds: rng.next_u64(),
            max_moves_per_process: rng.next_u64(),
            bound_rounds: bound(rng),
            bound_moves: bound(rng),
            verdict: *rng.choose(&[
                Verdict::Pass,
                Verdict::Fail,
                Verdict::NoBound,
                Verdict::Skip,
            ]),
        }
    }

    proptest! {
        /// The served report reads the rows the offline report reads
        /// from the downloaded JSONL.
        #[test]
        fn rows_equal_the_rows_parsed_from_the_jsonl(seed in 0u64..1_000_000, count in 0usize..12) {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let records: Vec<ScenarioRecord> = (0..count).map(|_| record(&mut rng)).collect();
            let parsed = ssr_report::reader::parse_campaign_jsonl(&output::jsonl(&records))
                .expect("the JSONL writer's output parses");
            let rows: Vec<CampaignRow> = records.iter().map(campaign_row).collect();
            prop_assert_eq!(rows, parsed);
        }
    }
}
