//! The `ssr-checkpoint/v1` store: an append-only JSONL journal of
//! finished scenarios, making long sweeps resumable across restarts.
//!
//! Layout: a header line `{"schema":"ssr-checkpoint/v1"}` followed by
//! one line per finished scenario,
//! `{"fingerprint":"<32 hex>","record":{...}}`, where the record
//! object is exactly what [`ScenarioRecord::write_json`] writes (a
//! campaign JSONL line). The writer appends and flushes
//! line-atomically under a mutex, so a crash can tear at most the
//! final line.
//!
//! Reading comes in two strengths. [`load`] is the *resume* path: it
//! tolerates a torn final line (the expected wound of a kill) but
//! rejects corruption anywhere else. [`validate`] is the *audit* path
//! used by `obs_validate --kind checkpoint`: every line must parse.
//!
//! [`resume`] replays the records straight into a [`RecordCache`]
//! ([`replay_into`]) and opens the writer, which is how the serve
//! orchestrator and the `experiments --checkpoint` batch path resume:
//! cache hits skip the simulator entirely, so a restarted sweep
//! recomputes only what the journal is missing.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use ssr_obs::json::{self, Value};
use ssr_runtime::fingerprint::Fingerprint;
use ssr_runtime::{TerminationReason, Verdict};

use crate::cache::RecordCache;
use crate::runner::ScenarioRecord;

/// The schema tag of the checkpoint journal.
pub const SCHEMA: &str = "ssr-checkpoint/v1";

/// Append-only checkpoint journal writer (line-atomic, flushed per
/// append).
pub struct CheckpointWriter {
    inner: Mutex<BufWriter<std::fs::File>>,
}

impl CheckpointWriter {
    /// Opens `path` for appending, writing the schema header first if
    /// the file is new or empty.
    ///
    /// A torn final line (the file does not end in `\n` — a previous
    /// process died mid-append) is truncated away first, so resumed
    /// appends always start on a fresh line. This mirrors what [`load`]
    /// drops in memory: open the writer *after* loading and the two
    /// views agree.
    pub fn open(path: &Path) -> std::io::Result<CheckpointWriter> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let mut fresh = len == 0;
        if len > 0 {
            file.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.seek(SeekFrom::Start(0))?;
                let mut text = String::new();
                file.read_to_string(&mut text)?;
                let keep = text.rfind('\n').map_or(0, |i| i + 1);
                file.set_len(keep as u64)?;
                fresh = keep == 0;
            }
            file.seek(SeekFrom::End(0))?;
        }
        let mut w = BufWriter::new(file);
        if fresh {
            writeln!(w, "{{\"schema\":\"{SCHEMA}\"}}")?;
            w.flush()?;
        }
        Ok(CheckpointWriter {
            inner: Mutex::new(w),
        })
    }

    /// Appends one finished scenario and flushes, so the line is
    /// durable before the next scenario can complete. The line is
    /// written straight into one `String` before the lock is taken:
    /// workers appending at once wait only for each other's write and
    /// flush.
    pub fn append(&self, fp: Fingerprint, rec: &ScenarioRecord) -> std::io::Result<()> {
        // The fingerprint's 32 hex digits need no escaping.
        let mut line = format!("{{\"fingerprint\":\"{fp}\",\"record\":");
        rec.write_json(&mut line);
        line.push_str("}\n");
        let mut w = self.inner.lock().unwrap();
        w.write_all(line.as_bytes())?;
        w.flush()
    }
}

/// Parses one record object, as [`ScenarioRecord::write_json`] writes
/// it, back into a record.
pub fn record_from_json(v: &Value) -> Result<ScenarioRecord, String> {
    let what = "record";
    let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
        match json::field(v, key, what)? {
            Value::Null => Ok(None),
            other => other
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("{what}.{key} must be an unsigned integer or null")),
        }
    };
    let reason = match json::field(v, "reason", what)? {
        Value::Null => None,
        other => {
            let s = other
                .as_str()
                .ok_or_else(|| format!("{what}.reason must be a string or null"))?;
            Some(s.parse::<TerminationReason>()?)
        }
    };
    Ok(ScenarioRecord {
        campaign: json::str_field(v, "campaign", what)?,
        index: json::u64_field(v, "index", what)? as usize,
        topology: json::str_field(v, "topology", what)?,
        n: json::u64_field(v, "n", what)? as usize,
        nodes: json::u64_field(v, "nodes", what)?,
        edges: json::u64_field(v, "edges", what)?,
        max_degree: json::u64_field(v, "max_degree", what)?,
        diameter: json::u64_field(v, "diameter", what)?,
        algorithm: json::str_field(v, "algorithm", what)?,
        daemon: json::str_field(v, "daemon", what)?,
        init: json::str_field(v, "init", what)?,
        trial: json::u64_field(v, "trial", what)?,
        seed: json::u64_field(v, "seed", what)?,
        reached: json::bool_field(v, "reached", what)?,
        terminal: json::bool_field(v, "terminal", what)?,
        reason,
        steps: json::u64_field(v, "steps", what)?,
        moves: json::u64_field(v, "moves", what)?,
        rounds: json::u64_field(v, "rounds", what)?,
        max_moves_per_process: json::u64_field(v, "max_moves_per_process", what)?,
        bound_rounds: opt_u64("bound_rounds")?,
        bound_moves: opt_u64("bound_moves")?,
        verdict: json::str_field(v, "verdict", what)?.parse::<Verdict>()?,
    })
}

fn parse_entry(line: &str) -> Result<(Fingerprint, ScenarioRecord), String> {
    let v = json::parse(line)?;
    let fp = json::str_field(&v, "fingerprint", "entry")?.parse::<Fingerprint>()?;
    let rec = record_from_json(json::field(&v, "record", "entry")?)?;
    Ok((fp, rec))
}

/// Loads a checkpoint journal for **resume**: the header must be
/// intact, interior lines must parse, and only the *final* line may be
/// torn (a kill mid-append) — it is silently dropped. A missing or
/// empty file loads as zero entries.
pub fn load(path: &Path) -> Result<Vec<(Fingerprint, ScenarioRecord)>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    if text.trim().is_empty() {
        return Ok(Vec::new());
    }
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    check_header(lines[0])?;
    // A torn tail is only possible on the physically last line; a line
    // is complete iff the writer got its trailing newline out.
    let tail_torn = !text.ends_with('\n');
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate().skip(1) {
        match parse_entry(line) {
            Ok(entry) => out.push(entry),
            Err(_) if tail_torn && i == lines.len() - 1 => {}
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok(out)
}

/// Replays a checkpoint journal into `cache`, returning how many
/// records were absorbed. The resume entry point: after this, a re-run
/// of the same campaign hits the cache for every journaled scenario.
pub fn replay_into(path: &Path, cache: &RecordCache) -> Result<usize, String> {
    let entries = load(path)?;
    let n = entries.len();
    for (fp, rec) in entries {
        cache.insert(fp, &rec);
    }
    Ok(n)
}

/// Opens (or creates) the journal at `path` for a resumed sweep:
/// replays its entries into `cache`, then opens the writer, which heals
/// a torn final line. Returns the writer and how many entries were
/// replayed.
pub fn resume(path: &Path, cache: &RecordCache) -> Result<(CheckpointWriter, usize), String> {
    let replayed = replay_into(path, cache)?;
    let writer = CheckpointWriter::open(path)
        .map_err(|e| format!("cannot open checkpoint {}: {e}", path.display()))?;
    Ok((writer, replayed))
}

fn check_header(line: &str) -> Result<(), String> {
    let v = json::parse(line).map_err(|e| format!("header: {e}"))?;
    let schema = json::str_field(&v, "schema", "header")?;
    if schema != SCHEMA {
        return Err(format!("header schema must be {SCHEMA:?}, got {schema:?}"));
    }
    Ok(())
}

/// Strictly validates checkpoint text (the audit path): header plus
/// every entry must parse. Returns the entry count.
pub fn validate(text: &str) -> Result<usize, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let Some(first) = lines.first() else {
        return Err("empty checkpoint".into());
    };
    check_header(first)?;
    for (i, line) in lines.iter().enumerate().skip(1) {
        parse_entry(line).map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(lines.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trial: u64) -> ScenarioRecord {
        let mut r = crate::test_support::record("ring", 8);
        r.trial = trial;
        r.bound_rounds = Some(24);
        r
    }

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn records_round_trip_through_json() {
        for r in [
            rec(0),
            {
                let mut r = rec(1);
                r.reason = None;
                r.bound_rounds = None;
                r.bound_moves = Some(9);
                r.verdict = Verdict::Skip;
                r
            },
            {
                let mut r = rec(2);
                r.reason = Some(TerminationReason::CapExhausted);
                r.verdict = Verdict::Fail;
                r
            },
        ] {
            let mut line = String::new();
            r.write_json(&mut line);
            let v = json::parse(&line).unwrap();
            assert_eq!(record_from_json(&v).unwrap(), r);
        }
    }

    #[test]
    fn write_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("ssr-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round-trip.jsonl");
        let _ = std::fs::remove_file(&path);

        {
            let w = CheckpointWriter::open(&path).unwrap();
            w.append(fp(1), &rec(0)).unwrap();
            w.append(fp(2), &rec(1)).unwrap();
        }
        // Re-opening appends without re-writing the header.
        {
            let w = CheckpointWriter::open(&path).unwrap();
            w.append(fp(3), &rec(2)).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(validate(&text).unwrap(), 3);
        let entries = load(&path).unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].0, fp(1));
        assert_eq!(entries[2].1, rec(2));

        std::fs::remove_file(&path).unwrap();
        assert_eq!(load(&path).unwrap(), Vec::new(), "missing file is empty");
    }

    #[test]
    fn torn_tail_is_dropped_on_load_but_rejected_by_validate() {
        let dir = std::env::temp_dir().join(format!("ssr-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let w = CheckpointWriter::open(&path).unwrap();
            w.append(fp(1), &rec(0)).unwrap();
            w.append(fp(2), &rec(1)).unwrap();
        }
        // Simulate a kill mid-append: chop the file mid-way through
        // the final line (no trailing newline).
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 20]).unwrap();

        let entries = load(&path).unwrap();
        assert_eq!(entries.len(), 1, "torn tail dropped");
        assert_eq!(entries[0].0, fp(1));
        let torn = std::fs::read_to_string(&path).unwrap();
        assert!(validate(&torn).is_err(), "audit path stays strict");

        // Resume: re-opening the writer truncates the torn tail, so
        // the re-append lands on a fresh line and the journal is clean
        // again.
        {
            let w = CheckpointWriter::open(&path).unwrap();
            w.append(fp(2), &rec(1)).unwrap();
        }
        let entries = load(&path).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].0, fp(2));
        let healed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(validate(&healed).unwrap(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn replay_fills_the_cache() {
        let dir = std::env::temp_dir().join(format!("ssr-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replay.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let w = CheckpointWriter::open(&path).unwrap();
            w.append(fp(10), &rec(0)).unwrap();
            w.append(fp(11), &rec(1)).unwrap();
        }
        let cache = RecordCache::new();
        assert_eq!(replay_into(&path, &cache).unwrap(), 2);
        assert_eq!(cache.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_headers_and_bodies_are_rejected() {
        assert!(validate("").is_err());
        assert!(validate("{\"schema\":\"wrong/v9\"}\n").is_err());
        assert!(validate("not json\n").is_err());
        let good = format!("{{\"schema\":\"{SCHEMA}\"}}\n");
        assert_eq!(validate(&good).unwrap(), 0);
        assert!(validate(&format!("{good}{{\"fingerprint\":\"xx\"}}\n")).is_err());
    }
}
