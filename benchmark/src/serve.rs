//! `serve-mixed`: an in-process `ssr_serve::Server` with a checkpoint
//! journal on a fresh file, driven by a closed loop of nproc clients.
//!
//! Each job is a small mixed-family spec (`unison-sdr`,
//! `sdr-agreement(8)`, `fga-sdr:domination(1,0)`, `cfg-unison` on
//! ring/path at n ≤ 32 under two daemons). A client POSTs the spec,
//! reads the SSE stream to its end, GETs `records.jsonl` (retrying the
//! 409 that can follow the stream's end, see README.md), then GETs the
//! report and the status. Cold jobs carry a fresh seed (simulate,
//! cache insert, journal append); warm jobs resubmit a spec the same
//! client already ran (all cache hits, zero steps).

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ssr_campaign::checkpoint::{self, record_from_json};
use ssr_campaign::output::{self, Json};
use ssr_campaign::{families, CheckpointWriter, ScenarioRecord};
use ssr_obs::json;
use ssr_serve::{spec, Server, ServerConfig, Store};

use crate::layers;
use crate::util::{
    self, median, mix, per_call, secs, Checks, Counters, Metrics, Outcome, Round, SpanLog,
};
use crate::Args;

/// Job kinds per client, repeated: `true` is cold. Five cold in eight
/// puts the median and the 90th percentile of the mixed job latencies
/// inside the cold population rather than in the gap between the two.
const PATTERN: [bool; 8] = [true, false, true, true, false, true, false, true];

fn jobs_per_client(smoke: bool) -> usize {
    if smoke {
        4
    } else {
        24
    }
}

/// One client's job: the spec text, whether it is cold, and (for a
/// warm job) the index of its cold twin in the same client's script.
struct JobSpec {
    text: String,
    scenarios: u64,
    cold: bool,
    twin: usize,
}

fn spec_text(id: &str, seed: u64, smoke: bool) -> String {
    let (sizes, cap) = if smoke {
        ("[6]", 2_000)
    } else {
        ("[8,16,32]", 20_000)
    };
    format!(
        "{{\"schema\":\"ssr-campaign-spec/v1\",\"id\":\"{id}\",\"topologies\":[\"ring\",\"path\"],\
         \"sizes\":{sizes},\"algorithms\":[\"unison-sdr\",\"sdr-agreement(8)\",\
         \"fga-sdr:domination(1,0)\",\"cfg-unison\"],\"daemons\":[\"central\",\"subset(p=0.5)\"],\
         \"inits\":[\"arbitrary\"],\"trials\":4,\"step_cap\":{cap},\"seed\":{seed}}}"
    )
}

/// The closed-loop script of client `c`, generated from the workload
/// seed.
fn script(seed: u64, c: usize, smoke: bool) -> Vec<JobSpec> {
    let mut jobs: Vec<JobSpec> = Vec::new();
    for j in 0..jobs_per_client(smoke) {
        let colds: Vec<usize> = (0..j).filter(|&i| jobs[i].cold).collect();
        let cold = PATTERN[j % PATTERN.len()] || colds.is_empty();
        let job = if cold {
            let text = spec_text(
                &format!("mix-{c}-{j}"),
                mix(seed, (c * 1000 + j) as u64),
                smoke,
            );
            let (_, campaign) = spec::parse(&text).expect("generated specs are valid");
            JobSpec {
                text,
                scenarios: campaign.len() as u64,
                cold: true,
                twin: j,
            }
        } else {
            let twin = colds[(mix(seed, (c * 1000 + j) as u64) % colds.len() as u64) as usize];
            JobSpec {
                text: jobs[twin].text.clone(),
                scenarios: jobs[twin].scenarios,
                cold: false,
                twin,
            }
        };
        jobs.push(job);
    }
    jobs
}

/// One HTTP/1.1 exchange (`Connection: close`): status and body.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read {path}: {e}"))?;
    split_response(&raw).ok_or_else(|| format!("malformed response to {method} {path}"))
}

fn split_response(raw: &[u8]) -> Option<(u16, Vec<u8>)> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, raw[head_end + 4..].to_vec()))
}

/// Reads the SSE stream of `job` to its end; returns when the first
/// event and the `end` event arrived.
fn read_events(addr: SocketAddr, job: &str) -> Result<(Instant, Instant), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let req = format!("GET /campaigns/{job}/events HTTP/1.1\r\nHost: bench\r\n\r\n");
    stream
        .write_all(req.as_bytes())
        .map_err(|e| format!("send events: {e}"))?;
    let (mut raw, mut buf) = (Vec::new(), [0u8; 4096]);
    let (mut first, mut end) = (None, None);
    loop {
        let n = stream
            .read(&mut buf)
            .map_err(|e| format!("read events: {e}"))?;
        if n == 0 {
            break;
        }
        let now = Instant::now();
        raw.extend_from_slice(&buf[..n]);
        if first.is_none() && contains(&raw, b"data: ") {
            first = Some(now);
        }
        if end.is_none() && contains(&raw, b"\"progress\":\"end\"") {
            end = Some(now);
        }
    }
    if !raw.starts_with(b"HTTP/1.1 200") {
        return Err(format!("events of {job}: not a 200 stream"));
    }
    match (first, end) {
        (Some(f), Some(e)) => Ok((f, e)),
        _ => Err(format!(
            "events of {job}: stream ended without an end event"
        )),
    }
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// Pause between two polls of a job that is not stored yet: short
/// next to a job, long enough that the client does not take the CPU
/// from the orchestrator it is waiting for. The wait counts in the
/// job's latency.
const RETRY_WAIT: Duration = Duration::from_micros(100);

/// Polls at most this often before giving up on a job.
const MAX_RETRIES: u64 = 100_000;

/// Client-side timeline and results of one job.
struct JobRun {
    cold: bool,
    post: Instant,
    created: Instant,
    first_event: Instant,
    end_event: Instant,
    records_at: Instant,
    report: (Instant, Instant),
    retries: u64,
    status_retries: u64,
    records: Vec<u8>,
    status: json::Value,
    metrics_json: String,
    job_id: String,
}

impl JobRun {
    fn latency_ms(&self) -> f64 {
        (self.records_at - self.post).as_secs_f64() * 1e3
    }

    /// A counter of the job's final status document.
    fn counter(&self, key: &str) -> Option<u64> {
        self.status.get(key).and_then(json::Value::as_u64)
    }
}

fn run_job(addr: SocketAddr, spec: &JobSpec, want_metrics: bool) -> Result<JobRun, String> {
    let post = Instant::now();
    let (status, body) = http(addr, "POST", "/campaigns", &spec.text)?;
    let created = Instant::now();
    let body = String::from_utf8_lossy(&body).to_string();
    if status != 201 {
        return Err(format!("POST /campaigns: {status} {body}"));
    }
    let job_id = json::parse(&body)
        .ok()
        .and_then(|doc| {
            doc.get("job")
                .and_then(json::Value::as_str)
                .map(String::from)
        })
        .ok_or_else(|| format!("no job id in {body}"))?;
    let (first_event, end_event) = read_events(addr, &job_id)?;
    // The SSE stream can end before the orchestrator stores the
    // outcome, so records may answer 409 briefly: retry and count.
    let mut retries = 0;
    let records = loop {
        let (status, body) = http(
            addr,
            "GET",
            &format!("/campaigns/{job_id}/records.jsonl"),
            "",
        )?;
        match status {
            200 => break body,
            409 if retries < MAX_RETRIES => {
                retries += 1;
                std::thread::sleep(RETRY_WAIT);
            }
            other => return Err(format!("GET records.jsonl: {other}")),
        }
    };
    let records_at = Instant::now();
    let t = Instant::now();
    let (status, _) = http(addr, "GET", &format!("/campaigns/{job_id}/report"), "")?;
    let report = (t, Instant::now());
    if status != 200 {
        return Err(format!("GET report: {status}"));
    }
    // `run_job` stores the artifacts before it flips the phase to
    // done, so the status can still say "running" once records were
    // served: poll it, counting those retries too.
    let mut status_retries = 0;
    let doc = loop {
        let (status, body) = http(addr, "GET", &format!("/campaigns/{job_id}"), "")?;
        let body = String::from_utf8_lossy(&body);
        if status != 200 {
            return Err(format!("GET status: {status}"));
        }
        let doc = json::parse(&body).map_err(|e| format!("status of {job_id}: {e}"))?;
        let running = doc.get("phase").and_then(json::Value::as_str) == Some("running");
        if !running || status_retries == MAX_RETRIES {
            break doc;
        }
        status_retries += 1;
        std::thread::sleep(RETRY_WAIT);
    };
    let metrics_json = if want_metrics {
        let (status, m) = http(addr, "GET", &format!("/campaigns/{job_id}/metrics"), "")?;
        if status != 200 {
            return Err(format!("GET metrics: {status}"));
        }
        String::from_utf8_lossy(&m).to_string()
    } else {
        String::new()
    };
    Ok(JobRun {
        cold: spec.cold,
        post,
        created,
        first_event,
        end_event,
        records_at,
        report,
        retries,
        status_retries,
        records,
        status: doc,
        metrics_json,
        job_id,
    })
}

/// Checks one finished job against its spec (and, when warm, its cold
/// twin's records).
fn check_job(run: &JobRun, spec: &JobSpec, twin: Option<&JobRun>, checks: &mut Checks) {
    let field = |k| run.counter(k).unwrap_or(u64::MAX);
    let phase = run.status.get("phase").and_then(json::Value::as_str);
    checks.check(phase == Some("done"), || {
        format!("{} not done: {:?}", run.job_id, run.status)
    });
    let text = String::from_utf8_lossy(&run.records);
    checks.check(text.lines().count() as u64 == spec.scenarios, || {
        format!("{}: {} records", run.job_id, text.lines().count())
    });
    checks.check(
        !text.contains("\"verdict\":\"fail\"") && !text.contains("\"verdict\":\"skip\""),
        || format!("{}: a record failed or was skipped", run.job_id),
    );
    if spec.cold {
        checks.check(field("cache_misses") == spec.scenarios, || {
            format!(
                "cold {} did not miss everything: {:?}",
                run.job_id, run.status
            )
        });
    } else {
        checks.check(
            field("sim_steps") == 0 && field("cache_hits") == spec.scenarios,
            || format!("warm {} was not all hits: {:?}", run.job_id, run.status),
        );
        checks.check(twin.is_some_and(|t| t.records == run.records), || {
            format!("warm {} records differ from its cold twin", run.job_id)
        });
    }
}

struct ServedRound {
    setup_s: f64,
    wall_s: f64,
    runs: Vec<Vec<JobRun>>,
    journal: PathBuf,
    journal_bytes: u64,
}

/// Boots a fresh server (with a fresh journal), drives every client's
/// script through it, and shuts it down.
fn round(
    args: &Args,
    scripts: &[Vec<JobSpec>],
    k: usize,
    checks: &mut Checks,
    keep: bool,
) -> ServedRound {
    let dir = args.out_dir.join("serve-tmp");
    std::fs::create_dir_all(&dir).expect("create the temporary directory");
    let journal = dir.join(format!("journal-{}-{k}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let t = Instant::now();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: util::nproc(),
        checkpoint: Some(journal.clone()),
    })
    .expect("bind the benchmark server");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    while !matches!(http(addr, "GET", "/healthz", ""), Ok((200, _))) {
        std::thread::yield_now();
    }
    let setup_s = secs(t);
    let t = Instant::now();
    let results: Vec<Result<Vec<JobRun>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| {
                scope.spawn(move || {
                    script
                        .iter()
                        .map(|spec| run_job(addr, spec, keep))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = secs(t);
    let shutdown = http(addr, "POST", "/shutdown", "");
    checks.check(matches!(shutdown, Ok((200, _))), || {
        "shutdown refused".into()
    });
    let served = handle.join().expect("server thread panicked");
    checks.check(served.is_ok(), || format!("server exited with {served:?}"));
    let mut runs = Vec::new();
    for (script, result) in scripts.iter().zip(results) {
        match result {
            Ok(client) => {
                for (run, spec) in client.iter().zip(script) {
                    let twin = (!spec.cold).then(|| &client[spec.twin]);
                    check_job(run, spec, twin, checks);
                }
                runs.push(client);
            }
            Err(e) => checks.check(false, || format!("client failed: {e}")),
        }
    }
    let journal_bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
    if !keep {
        let _ = std::fs::remove_file(&journal);
    }
    ServedRound {
        setup_s,
        wall_s,
        runs,
        journal,
        journal_bytes,
    }
}

fn sim_steps(r: &ServedRound) -> u64 {
    r.runs
        .iter()
        .flatten()
        .map(|j| j.counter("sim_steps").unwrap_or(0))
        .sum()
}

fn cache_counts(r: &ServedRound) -> (u64, u64) {
    r.runs.iter().flatten().fold((0, 0), |(h, m), j| {
        (
            h + j.counter("cache_hits").unwrap_or(0),
            m + j.counter("cache_misses").unwrap_or(0),
        )
    })
}

fn scripts(args: &Args) -> Vec<Vec<JobSpec>> {
    (0..util::nproc())
        .map(|c| script(args.seed, c, args.smoke))
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let scripts = scripts(args);
    let mut checks = Checks::default();
    // (sim steps, cache hits and misses, journal bytes) of round 1.
    let mut reference = None;
    // Timing-dependent, so reported per round rather than compared.
    let (mut retries, mut status_retries) = (Vec::new(), Vec::new());
    let (rounds, peak_rss_mb) = util::rounds(args.seconds, |k| {
        let r = round(args, &scripts, k, &mut checks, false);
        let now = (sim_steps(&r), cache_counts(&r), r.journal_bytes);
        let first = *reference.get_or_insert(now);
        checks.check(first == now, || {
            "a round's work counters differ from round 1".into()
        });
        let jobs = r.runs.iter().flatten();
        retries.push(Json::U64(jobs.clone().map(|j| j.retries).sum()));
        status_retries.push(Json::U64(jobs.clone().map(|j| j.status_retries).sum()));
        let (cold, warm): (Vec<&JobRun>, Vec<&JobRun>) = jobs.partition(|j| j.cold);
        Round {
            setup_s: r.setup_s,
            wall_s: r.wall_s,
            steps: now.0,
            cold_ms: cold.iter().map(|j| j.latency_ms()).collect(),
            warm_ms: warm.iter().map(|j| j.latency_ms()).collect(),
            ..Round::default()
        }
    });
    let (steps, (hits, misses), bytes) = reference.unwrap_or_default();
    let jobs_per_round = scripts.iter().map(Vec::len).sum::<usize>();
    let mut counters = Counters::default();
    counters.put("sim_steps", steps);
    counters.put("cache.hits", hits);
    counters.put("cache.misses", misses);
    counters.put("checkpoint.bytes", bytes);
    counters.put("jobs", jobs_per_round as u64);
    let e2e = util::E2e {
        rounds,
        peak_rss_mb,
    };
    let extra = vec![
        ("clients", Json::U64(scripts.len() as u64)),
        ("http.records_retries_per_round", Json::Arr(retries)),
        ("http.status_retries_per_round", Json::Arr(status_retries)),
    ];
    Outcome {
        metrics: e2e.metrics(),
        counters,
        checks,
        notes: vec![e2e.samples_note(extra)],
    }
}

fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

/// The traced run: untraced and traced rounds in alternation until
/// `--seconds` have passed (a traced round's client timelines become
/// spans), then the layers under the service timed from outside on the
/// last traced round's own specs, records and journal.
fn traced(args: &Args) -> Outcome {
    let started = Instant::now();
    let scripts = scripts(args);
    let mut checks = Checks::default();
    let log = SpanLog::new();
    let (mut untraced_walls, mut rounds) = (Vec::new(), Vec::<ServedRound>::new());
    while rounds.len() < 2 || secs(started) < args.seconds {
        let k = 2 * rounds.len();
        untraced_walls.push(round(args, &scripts, k, &mut checks, false).wall_s);
        let traced = round(args, &scripts, k + 1, &mut checks, true);
        for (c, client) in traced.runs.iter().enumerate() {
            for j in client {
                let id = log.record("job", j.post, j.records_at, None, c);
                log.record("http.submit", j.post, j.created, Some(id), c);
                log.record(
                    "orchestrator.queue_wait",
                    j.created,
                    j.first_event,
                    Some(id),
                    c,
                );
                log.record("engine.job_run", j.first_event, j.end_event, Some(id), c);
                log.record("http.records", j.end_event, j.records_at, Some(id), c);
                log.record("http.report", j.report.0, j.report.1, None, c);
            }
        }
        if let Some(previous) = rounds.last() {
            let _ = std::fs::remove_file(&previous.journal);
        }
        rounds.push(traced);
    }
    let traced = rounds.last().expect("at least two traced rounds ran");
    let runs: Vec<&JobRun> = rounds
        .iter()
        .flat_map(|r| r.runs.iter().flatten())
        .collect();
    let med = |f: &dyn Fn(&JobRun) -> Option<f64>| {
        median(&runs.iter().filter_map(|j| f(j)).collect::<Vec<_>>())
    };
    let mut metrics = Metrics::default();
    metrics.put(
        "http.submit_ms",
        med(&|j| Some(ms(j.post, j.created))),
        "ms",
    );
    metrics.put(
        "orchestrator.queue_wait_ms",
        med(&|j| Some(ms(j.created, j.first_event))),
        "ms",
    );
    metrics.put(
        "engine.job_run_ms.cold",
        med(&|j| j.cold.then(|| ms(j.first_event, j.end_event))),
        "ms",
    );
    metrics.put(
        "engine.job_run_ms.warm",
        med(&|j| (!j.cold).then(|| ms(j.first_event, j.end_event))),
        "ms",
    );
    metrics.put(
        "http.records_ms",
        med(&|j| Some(ms(j.end_event, j.records_at))),
        "ms",
    );
    let retries: u64 = runs.iter().map(|j| j.retries).sum();
    metrics.put("http.records_retries", retries as f64, "count");
    metrics.put(
        "http.report_ms",
        med(&|j| Some(ms(j.report.0, j.report.1))),
        "ms",
    );
    let (hits, misses) = cache_counts(traced);
    metrics.put(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    metrics.put("checkpoint.bytes", traced.journal_bytes as f64, "bytes");
    let traced_walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    metrics.put(
        "trace.overhead",
        median(&traced_walls) / median(&untraced_walls),
        "x",
    );
    let runs: Vec<&JobRun> = traced.runs.iter().flatten().collect();

    // The layers under the service, timed from outside on this
    // round's cold specs and the records they produced.
    let colds: Vec<(&JobSpec, &JobRun)> = scripts
        .iter()
        .flatten()
        .zip(runs.iter().copied())
        .filter(|(s, _)| s.cold)
        .collect();
    let texts: Vec<&str> = colds.iter().map(|(s, _)| s.text.as_str()).collect();
    metrics.put(
        "spec.parse_us",
        per_call(texts.len(), || {
            for t in &texts {
                black_box(spec::parse(t).ok());
            }
        }) / 1e3,
        "us",
    );
    let registry = families::standard_families();
    let mut all_records: Vec<ScenarioRecord> = Vec::new();
    let mut passes = Vec::new();
    let (mut fp_ns, mut insert_ns, mut lookup_ns, mut n_fp) = (0.0, 0.0, 0.0, 0.0);
    for (spec_job, run) in &colds {
        let (_, campaign) = spec::parse(&spec_job.text).expect("generated specs are valid");
        let records: Vec<ScenarioRecord> = String::from_utf8_lossy(&run.records)
            .lines()
            .filter_map(|l| json::parse(l).ok().and_then(|v| record_from_json(&v).ok()))
            .collect();
        checks.check(records.len() == campaign.len(), || {
            format!("{}: served records do not parse", run.job_id)
        });
        let costs = layers::cache_costs(&campaign, &records);
        let n = campaign.len() as f64;
        fp_ns += costs.fingerprint_ns * n;
        insert_ns += costs.insert_ns * n;
        lookup_ns += costs.lookup_ns * n;
        n_fp += n;
        passes.push(layers::timed_engine_pass(
            &registry,
            &campaign,
            util::nproc(),
            &log,
            1 << 20,
        ));
        all_records.extend(records);
    }
    metrics.put("cache.lookup_ns", lookup_ns / n_fp.max(1.0), "ns");
    metrics.put("cache.insert_ns", insert_ns / n_fp.max(1.0), "ns");
    metrics.put("fingerprint.ns", fp_ns / n_fp.max(1.0), "ns");
    let scenarios: u64 = passes.iter().map(|p| p.scenarios).sum();
    let graph_ns: u64 = passes.iter().map(|p| p.graph_build_ns).sum();
    metrics.put("graph.build_s", graph_ns as f64 / 1e9, "s");
    layers::put_exec_metrics(&mut metrics, &passes, None, 0);
    layers::put_engine_metrics(&mut metrics, &passes, util::nproc(), scenarios);
    metrics.put(
        "output.jsonl_us_per_record",
        per_call(all_records.len(), || {
            black_box(output::jsonl(&all_records));
        }) / 1e3,
        "us",
    );
    let (append_us, replay_us) = journal_costs(&traced.journal, &args.out_dir, &mut checks);
    metrics.put("checkpoint.append_us", append_us, "us");
    metrics.put("checkpoint.replay_us_per_record", replay_us, "us");
    let _ = std::fs::remove_file(&traced.journal);
    metrics.put("report.render_ms", render_ms(&runs, &mut checks), "ms");

    let spans = log
        .write(
            &args
                .out_dir
                .join(format!("spans-serve-mixed-seed{}.jsonl", args.seed)),
        )
        .unwrap_or(0);
    metrics.put("obs.spans", spans as f64, "count");
    let mut counters = Counters::default();
    counters.put("sim_steps", sim_steps(traced));
    counters.put("cache.hits", hits);
    counters.put("cache.misses", misses);
    counters.put("checkpoint.bytes", traced.journal_bytes);
    counters.put("engine.scenarios", scenarios);
    let notes = vec![util::note(
        "trace",
        vec![
            ("spans", Json::U64(spans as u64)),
            ("traced_rounds", Json::U64(rounds.len() as u64)),
            ("http.records_retries", Json::U64(retries)),
            ("untraced_wall_s", Json::F64(median(&untraced_walls))),
            ("traced_wall_s", Json::F64(median(&traced_walls))),
        ],
    )];
    Outcome {
        metrics: layers::finish(metrics),
        counters,
        checks,
        notes,
    }
}

/// Append cost (µs per record, into a fresh journal) and re-boot
/// replay cost (µs per record, `Store::with_checkpoint`) of the
/// journal the traced round wrote.
fn journal_costs(journal: &Path, out_dir: &Path, checks: &mut Checks) -> (f64, f64) {
    let entries = match checkpoint::load(journal) {
        Ok(e) => e,
        Err(e) => {
            checks.check(false, || format!("journal does not load: {e}"));
            return (0.0, 0.0);
        }
    };
    let copy = out_dir
        .join("serve-tmp")
        .join(format!("append-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&copy);
    let writer = CheckpointWriter::open(&copy).expect("open the temporary journal");
    let t = Instant::now();
    for (fp, rec) in &entries {
        writer
            .append(*fp, rec)
            .expect("append to the temporary journal");
    }
    let append_us = t.elapsed().as_secs_f64() * 1e6 / entries.len().max(1) as f64;
    drop(writer);
    let _ = std::fs::remove_file(&copy);
    let t = Instant::now();
    let store = Store::with_checkpoint(journal.to_path_buf());
    let replay_us = t.elapsed().as_secs_f64() * 1e6 / entries.len().max(1) as f64;
    checks.check(
        store.as_ref().is_ok_and(|s| s.replayed == entries.len()),
        || "re-booted store did not replay every journal entry".into(),
    );
    (append_us, replay_us)
}

/// `ssr_report::render` on one served job's artifacts (records plus
/// metrics snapshot), as the server's `/report` route assembles them.
fn render_ms(runs: &[&JobRun], checks: &mut Checks) -> f64 {
    let Some(job) = runs.iter().find(|j| j.cold) else {
        return 0.0;
    };
    let mut art = ssr_report::Artifacts::default();
    let built = art
        .push_campaign_jsonl(
            &format!("{}.jsonl", job.job_id),
            &String::from_utf8_lossy(&job.records),
        )
        .and_then(|()| {
            art.push_metrics_json(&format!("{}-metrics.json", job.job_id), &job.metrics_json)
        });
    checks.check(built.is_ok(), || {
        format!("report artifacts rejected: {built:?}")
    });
    per_call(1, || {
        black_box(ssr_report::render(&art));
    }) / 1e6
}
