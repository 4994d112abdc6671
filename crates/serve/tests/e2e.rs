//! End-to-end service test: a real server on an ephemeral port, driven
//! through plain TCP — submit, stream, download, re-submit (all cache
//! hits), drain.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ssr_serve::http::MAX_HEAD;
use ssr_serve::{Server, ServerConfig};

const SPEC: &str = r#"{"schema":"ssr-campaign-spec/v1","id":"e2e",
    "topologies":["ring","star"],"sizes":[6],
    "algorithms":["unison-sdr"],"daemons":["central"],
    "trials":2,"step_cap":500000,"seed":11}"#;

/// One request, whole response back as (status line, headers+body text).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, raw)
}

fn body_of(raw: &str) -> &str {
    raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("")
}

/// Extracts `"key":<number>` from a status document.
fn u64_field(doc: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &doc[doc.find(&pat).unwrap_or_else(|| panic!("{key} in {doc}")) + pat.len()..];
    rest.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

fn wait_done(addr: SocketAddr, job: &str) -> String {
    for _ in 0..600 {
        let (status, raw) = request(addr, "GET", &format!("/campaigns/{job}"), "");
        assert_eq!(status, 200);
        let body = body_of(&raw).to_string();
        if body.contains("\"phase\":\"done\"") {
            return body;
        }
        assert!(!body.contains("\"phase\":\"failed\""), "job failed: {body}");
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("job {job} never finished");
}

#[test]
fn the_whole_surface_works_over_tcp() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        checkpoint: None,
    })
    .unwrap();
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());

    // Health.
    let (status, raw) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body_of(&raw).starts_with("ok"));

    // Bad spec → 400 with a specific message.
    let (status, raw) = request(addr, "POST", "/campaigns", "{\"schema\":\"nope\"}");
    assert_eq!(status, 400);
    assert!(body_of(&raw).contains("schema"));

    // Cold submission.
    let (status, raw) = request(addr, "POST", "/campaigns", SPEC);
    assert_eq!(status, 201, "{raw}");
    let job = "0001-e2e";
    assert!(body_of(&raw).contains(job));
    let cold = wait_done(addr, job);
    assert_eq!(u64_field(&cold, "scenarios"), 4);
    assert_eq!(u64_field(&cold, "done"), 4);
    assert_eq!(u64_field(&cold, "cache_hits"), 0);
    assert_eq!(u64_field(&cold, "cache_misses"), 4);
    assert!(u64_field(&cold, "sim_steps") > 0, "{cold}");

    // Artifacts before a job exists → 404; for this one → 200.
    let (status, _) = request(addr, "GET", "/campaigns/9999-x/records.jsonl", "");
    assert_eq!(status, 404);
    let (status, jsonl_raw) = request(addr, "GET", &format!("/campaigns/{job}/records.jsonl"), "");
    assert_eq!(status, 200);
    let cold_jsonl = body_of(&jsonl_raw).to_string();
    assert_eq!(cold_jsonl.lines().count(), 4);
    let (status, csv_raw) = request(addr, "GET", &format!("/campaigns/{job}/records.csv"), "");
    assert_eq!(status, 200);
    assert!(body_of(&csv_raw).starts_with("campaign,"));

    // The SSE stream replays the finished bus and terminates.
    let (status, sse) = request(addr, "GET", &format!("/campaigns/{job}/events"), "");
    assert_eq!(status, 200);
    assert!(sse.contains("text/event-stream"), "{sse}");
    assert!(
        sse.contains("data: {\"progress\":\"begin\",\"total\":4}"),
        "{sse}"
    );
    assert!(sse.contains("\"progress\":\"end\""), "{sse}");
    assert!(sse.trim_end().ends_with("0"), "chunked terminator: {sse:?}");

    // The report carries the full chart-anchor inventory.
    let (status, report) = request(addr, "GET", &format!("/campaigns/{job}/report"), "");
    assert_eq!(status, 200);
    for anchor in ["chart-bounds", "chart-convergence", "chart-scaling"] {
        assert!(
            report.contains(&format!("id=\"{anchor}\"")),
            "missing {anchor}"
        );
    }

    // Warm re-submission: all hits, zero simulator steps, identical bytes.
    let (status, _) = request(addr, "POST", "/campaigns", SPEC);
    assert_eq!(status, 201);
    let warm = wait_done(addr, "0002-e2e");
    assert_eq!(u64_field(&warm, "cache_hits"), 4);
    assert_eq!(u64_field(&warm, "cache_misses"), 0);
    assert_eq!(u64_field(&warm, "sim_steps"), 0);
    let (_, warm_jsonl_raw) = request(addr, "GET", "/campaigns/0002-e2e/records.jsonl", "");
    assert_eq!(body_of(&warm_jsonl_raw), cold_jsonl);

    // The listing shows both jobs.
    let (status, listing) = request(addr, "GET", "/campaigns", "");
    assert_eq!(status, 200);
    assert!(listing.contains("0001-e2e") && listing.contains("0002-e2e"));

    // Drain: shutdown answers, later submissions bounce, run() returns.
    let (status, raw) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert!(body_of(&raw).starts_with("draining"));
    running
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    assert!(TcpStream::connect(addr)
        .map(|mut s| {
            // Whatever half-open connection slips in, no response comes back.
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            s.set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let mut buf = [0u8; 1];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        })
        .unwrap_or(true));
}

#[test]
fn live_streaming_delivers_events_before_the_job_finishes() {
    // A bigger grid so the stream is demonstrably live: open the SSE
    // connection first, then submit, and require that progress arrives.
    let server = Server::bind(ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());

    let spec = r#"{"schema":"ssr-campaign-spec/v1","id":"live",
        "topologies":["ring"],"sizes":[6,8,10,12],
        "algorithms":["unison-sdr"],"daemons":["central"],
        "trials":4,"step_cap":500000,"seed":3}"#;
    let (status, _) = request(addr, "POST", "/campaigns", spec);
    assert_eq!(status, 201);
    let (status, sse) = request(addr, "GET", "/campaigns/0001-live/events", "");
    assert_eq!(status, 200);
    // 1 begin + 16 items + 1 end, every line a data: chunk.
    assert_eq!(sse.matches("data: ").count(), 18, "{sse}");
    assert!(sse.contains("\"done\":16"));

    let (_, _) = request(addr, "POST", "/shutdown", "");
    running.join().unwrap().unwrap();
}

#[test]
fn records_are_served_as_soon_as_the_stream_ends() {
    // The bus's `end` event follows the stored artifacts and the `done`
    // phase, so a client that follows the SSE stream to its end gets
    // the records on its first try and reads "done" — job after job.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        checkpoint: None,
    })
    .unwrap();
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());

    for seq in 1..=6u64 {
        // A fresh seed per job keeps every job cold; 256 records make
        // storing the artifacts take long enough that an `end` event
        // sent before the store is caught by the first GET below.
        let spec = format!(
            r#"{{"schema":"ssr-campaign-spec/v1","id":"race",
            "topologies":["ring","path"],"sizes":[6,8],
            "algorithms":["unison-sdr"],"daemons":["central"],
            "inits":["arbitrary"],"trials":64,"step_cap":500000,"seed":{seq}}}"#
        );
        let (status, raw) = request(addr, "POST", "/campaigns", &spec);
        assert_eq!(status, 201, "{raw}");
        let job = format!("{seq:04}-race");
        let (status, sse) = request(addr, "GET", &format!("/campaigns/{job}/events"), "");
        assert_eq!(status, 200);
        assert!(sse.contains("\"progress\":\"end\""), "{sse}");
        let (status, raw) = request(addr, "GET", &format!("/campaigns/{job}/records.jsonl"), "");
        assert_eq!(
            status, 200,
            "{job}: records right after the stream ended: {raw}"
        );
        assert_eq!(body_of(&raw).lines().count(), 256);
        let (status, raw) = request(addr, "GET", &format!("/campaigns/{job}"), "");
        assert_eq!(status, 200);
        assert!(body_of(&raw).contains("\"phase\":\"done\""), "{job}: {raw}");
    }

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    running.join().unwrap().unwrap();
}

#[test]
fn an_unterminated_oversized_head_is_rejected_without_waiting() {
    // More than MAX_HEAD bytes of request line and no newline, with the
    // socket left open: the server must answer 400 once the limit is
    // read, not hold the bytes until the read timeout (10 s) fires. The
    // overshoot is small, so the server's buffered reads take in every
    // byte sent and its close is a clean FIN, not a reset.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        checkpoint: None,
    })
    .unwrap();
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let started = Instant::now();
    let line = format!("GET /{} HTTP/1.1", "a".repeat(MAX_HEAD + 64));
    stream.write_all(line.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let elapsed = started.elapsed();
    let raw = String::from_utf8_lossy(&raw);
    assert!(raw.starts_with("HTTP/1.1 400 "), "{raw}");
    assert!(
        elapsed < Duration::from_secs(2),
        "the 400 took {elapsed:?}: the head read is not bounded"
    );
    drop(stream);

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    running.join().unwrap().unwrap();
}

#[test]
fn a_deeply_nested_body_is_a_400_and_the_server_lives() {
    // 100 KB of `[`: far under the body cap, far over the parser's
    // nesting bound. Unbounded recursion would overflow the connection
    // thread's stack and abort the whole server.
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        checkpoint: None,
    })
    .unwrap();
    let addr = server.local_addr();
    let running = std::thread::spawn(move || server.run());

    let (status, raw) = request(addr, "POST", "/campaigns", &"[".repeat(100_000));
    assert_eq!(status, 400, "{raw}");
    assert!(body_of(&raw).contains("nesting"), "{raw}");
    let (status, raw) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body_of(&raw).starts_with("ok"));

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    running.join().unwrap().unwrap();
}
