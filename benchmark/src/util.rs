//! Shared plumbing: quantiles, peak memory, the result document, the
//! host stamp, and the in-memory span log of the traced run.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

use ssr_campaign::output::Json;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `values`; `NaN`
/// on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Repeats `body` (which makes `calls` calls) until it has run for
/// ~20 ms; returns nanoseconds per call.
pub fn per_call(calls: usize, mut body: impl FnMut()) -> f64 {
    let mut reps = 0u64;
    let t = Instant::now();
    while reps == 0 || secs(t) < 0.02 {
        body();
        reps += 1;
    }
    t.elapsed().as_nanos() as f64 / (reps as f64 * calls.max(1) as f64)
}

/// Rounds every workload measures at least.
pub const MIN_ROUNDS: usize = 3;

/// Runs `round(k)` for k = 0, 1, … until at least [`MIN_ROUNDS`]
/// rounds ran and `seconds` passed, with a run of the host reference
/// (see [`host_slowdown`]) before the first round and after every
/// round; a round's slowdown is the mean of the two runs around it.
/// Also returns the peak RSS read right after round [`MIN_ROUNDS`], so
/// that the memory figure covers a fixed amount of work whatever the
/// run length.
pub fn rounds(seconds: f64, mut round: impl FnMut(usize) -> Round) -> (Vec<Round>, f64) {
    let started = Instant::now();
    let threads = nproc();
    let mut out: Vec<Round> = Vec::new();
    let mut rss = 0.0;
    let mut before = host_slowdown(threads);
    while out.len() < MIN_ROUNDS || secs(started) < seconds {
        let mut r = round(out.len());
        let after = host_slowdown(threads);
        r.slowdown = (before + after) / 2.0;
        before = after;
        out.push(r);
        if out.len() == MIN_ROUNDS {
            rss = peak_rss_mb();
        }
    }
    (out, rss)
}

/// One round of a workload: its set-up, then its work (its jobs).
#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    /// Time to finish the round's work, set-up excluded.
    pub wall_s: f64,
    /// Simulator steps the round's jobs took.
    pub steps: u64,
    pub cold_ms: Vec<f64>,
    pub warm_ms: Vec<f64>,
    /// How much slower than nominal the host ran around this round (see
    /// [`host_slowdown`]); set by [`rounds`].
    pub slowdown: f64,
}

/// Wall time of one host reference run at nproc = 2 in the fast phases
/// of a shared 2-vCPU Xeon VM: the speed that adjusted times are
/// expressed at. It only sets the scale; any fixed value gives the same
/// ratios.
const REFERENCE_NOMINAL_S: f64 = 0.07;

/// The host reference, timed once on `threads` threads, over its
/// nominal time.
///
/// On a shared host the speed a core delivers drifts by up to ~2× over
/// tens of seconds, with little steal time to show for it. The
/// reference is a fixed kernel that lives in this file, and so never
/// changes with the crates under test: per thread, unison-like moves on
/// a 64-clock ring, a random node per move, each followed by a check of
/// every edge, i.e. short, branchy, cache-resident steps like
/// `e10-narrow`'s steps and stop predicate. Timed next to every round,
/// it measures the drift as a slowdown, and the end-to-end metrics
/// divide every time of the round by it (see [`E2e::metrics`]).
pub fn host_slowdown(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|scope| {
        for id in 0..threads {
            scope.spawn(move || std::hint::black_box(ring_work(id as u64)));
        }
    });
    secs(t) / REFERENCE_NOMINAL_S
}

/// SplitMix64, spelled out here rather than taken from a crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn ring_work(seed: u64) -> u64 {
    const NODES: usize = 64;
    const MOVES: u64 = 600_000;
    const PERIOD: u64 = 3 * NODES as u64;
    let mut state = seed;
    let mut clocks = [0u64; NODES];
    for c in clocks.iter_mut() {
        *c = splitmix(&mut state) % PERIOD;
    }
    let mut safe_edges = 0;
    for _ in 0..MOVES {
        let v = (splitmix(&mut state) % NODES as u64) as usize;
        let left = clocks[(v + NODES - 1) % NODES];
        let right = clocks[(v + 1) % NODES];
        let next = (clocks[v] + 1) % PERIOD;
        clocks[v] = if left == next || right == next || (left == clocks[v] && right == clocks[v]) {
            next
        } else {
            left.min(right)
        };
        // Every edge, every move: no early exit.
        safe_edges += (0..NODES)
            .filter(|&i| {
                let d = (clocks[i] + PERIOD - clocks[(i + 1) % NODES]) % PERIOD;
                d <= 1 || d == PERIOD - 1
            })
            .count() as u64;
    }
    safe_edges ^ clocks.iter().sum::<u64>()
}

/// The end-to-end metrics, computed the same way on every workload.
pub struct E2e {
    pub rounds: Vec<Round>,
    pub peak_rss_mb: f64,
}

impl E2e {
    /// The end-to-end metrics. Every time (and every rate) of a round
    /// is first brought to the reference's nominal speed: a round
    /// during which the host ran 1.5× slower than nominal has its
    /// times divided by 1.5. The unadjusted figures are in
    /// [`E2e::samples_note`].
    pub fn metrics(&self) -> Metrics {
        self.metrics_at(|r| r.slowdown)
    }

    fn metrics_at(&self, slowdown: impl Fn(&Round) -> f64) -> Metrics {
        let per_round = |f: &dyn Fn(&Round) -> f64| {
            self.rounds
                .iter()
                .map(|r| f(r) / slowdown(r))
                .collect::<Vec<_>>()
        };
        let jobs_of = |f: fn(&Round) -> &Vec<f64>| {
            self.rounds
                .iter()
                .flat_map(|r| f(r).iter().map(|ms| ms / slowdown(r)))
                .collect::<Vec<_>>()
        };
        let cold = jobs_of(|r| &r.cold_ms);
        let warm = jobs_of(|r| &r.warm_ms);
        let jobs: Vec<f64> = cold.iter().chain(&warm).copied().collect();
        // Every workload prints every end-to-end metric. Only
        // serve-mixed has a warm path; elsewhere every job is cold, and
        // `warm_p50_ms` reads the cold median.
        let warm = if warm.is_empty() { &cold } else { &warm };
        let walls = per_round(&|r| r.wall_s);
        let mut m = Metrics::default();
        m.put("wall_s", median(&walls), "s");
        m.put("setup_s", median(&per_round(&|r| r.setup_s)), "s");
        let rate = |count: &dyn Fn(&Round) -> f64| {
            let rates: Vec<f64> = self
                .rounds
                .iter()
                .zip(&walls)
                .map(|(r, w)| count(r) / w)
                .collect();
            median(&rates)
        };
        m.put("steps_per_s", rate(&|r| r.steps as f64), "steps/s");
        m.put("peak_rss_mb", self.peak_rss_mb, "MiB");
        m.put("job_p50_ms", quantile(&jobs, 0.5), "ms");
        m.put("job_p90_ms", quantile(&jobs, 0.9), "ms");
        m.put("cold_p50_ms", median(&cold), "ms");
        m.put("warm_p50_ms", median(warm), "ms");
        m.put(
            "jobs_per_s",
            rate(&|r| (r.cold_ms.len() + r.warm_ms.len()) as f64),
            "jobs/s",
        );
        m
    }

    /// The sample counts behind the medians and percentiles, the
    /// rounds' slowdowns, and the end-to-end metrics as measured (not
    /// brought to the nominal speed), plus `extra` members.
    pub fn samples_note(&self, extra: Vec<(&str, Json)>) -> Json {
        let cold: usize = self.rounds.iter().map(|r| r.cold_ms.len()).sum();
        let warm: usize = self.rounds.iter().map(|r| r.warm_ms.len()).sum();
        let slowdowns: Vec<f64> = self.rounds.iter().map(|r| r.slowdown).collect();
        let unadjusted = self
            .metrics_at(|_| 1.0)
            .0
            .into_iter()
            .map(|(name, value, _)| (name, Json::F64(value)))
            .collect();
        let mut members = vec![
            ("rounds", Json::U64(self.rounds.len() as u64)),
            ("jobs", Json::U64((cold + warm) as u64)),
            ("cold_jobs", Json::U64(cold as u64)),
            ("warm_jobs", Json::U64(warm as u64)),
            ("slowdown_p50", Json::F64(median(&slowdowns))),
            ("slowdown_min", Json::F64(quantile(&slowdowns, 0.0))),
            ("slowdown_max", Json::F64(quantile(&slowdowns, 1.0))),
            ("unadjusted", Json::Obj(unadjusted)),
        ];
        members.extend(extra);
        note("samples", members)
    }
}

/// A one-member object `{key: {members…}}`, for the lines printed
/// before the result.
pub fn note(key: &str, members: Vec<(&str, Json)>) -> Json {
    let body = members
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    Json::Obj(vec![(key.to_string(), Json::Obj(body))])
}

/// Derives an independent sub-seed of the workload seed for `salt`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut state = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    ssr_runtime::rng::splitmix64(&mut state)
}

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }
}

/// Exact, host-independent work counters, reported apart from the
/// wall-clock metrics (two runs of one seed must agree on them).
#[derive(Default)]
pub struct Counters(pub Vec<(String, Json)>);

impl Counters {
    pub fn put(&mut self, name: &str, value: u64) {
        self.0.push((name.to_string(), Json::U64(value)));
    }
}

/// Correctness bookkeeping: every checked operation counts as
/// attempted; a failed check is printed to stderr and counted.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub counters: Counters,
    pub checks: Checks,
    /// Notes (sample counts and the like), printed before the result
    /// line.
    pub notes: Vec<Json>,
}

/// The host stamp printed with every result.
pub fn host_stamp(workload: &str, seed: u64, trace: bool) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let command_line = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    note(
        "host",
        vec![
            ("available_parallelism", Json::U64(nproc() as u64)),
            ("cpu", Json::Str(cpu)),
            ("rustc", Json::Str(command_line("rustc", &["-V"]))),
            (
                "git_sha",
                Json::Str(command_line("git", &["rev-parse", "HEAD"])),
            ),
            ("profile", Json::str(profile)),
            ("workload", Json::str(workload)),
            ("seed", Json::U64(seed)),
            ("trace", Json::Bool(trace)),
        ],
    )
}

/// Cores the benchmark sizes its thread counts to.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One recorded span: a timed call across a layer boundary.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    thread: usize,
}

/// The traced run's span log: kept in memory, written out at the end.
/// Clock reads happen at the boundaries only; recording is a push
/// under a mutex that callers take outside their measured intervals.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the log's origin, for `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its id (for children's `parent`).
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        thread: usize,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            thread,
        });
        spans.len() - 1
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = String::new();
        for (id, s) in spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::U64(id as u64)),
                ("name", Json::str(&s.name)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("thread", Json::U64(s.thread as u64)),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
            ]);
            let _ = writeln!(out, "{line}");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(spans.len())
    }
}
