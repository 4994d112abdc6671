//! Two formats have an older form the readers still accept:
//! `bench-scale-v2` files, which carry `conflict_classes_avg` and
//! `soa_heap_bytes` beside the `bench-scale-v3` keys, and
//! `moves-applied` trace lines with a `conflict_classes` member.

use ssr_obs::trace::validate_jsonl_line;
use ssr_report::reader::{parse_scale_json, parse_trace_jsonl};

/// The committed sweep, written as `bench-scale-v2`.
const COMMITTED_V2: &str = include_str!("../../../BENCH_SCALE.json");

/// `text` as the `scale` bin writes it now: `bench-scale-v3`, without
/// the two retired keys.
fn as_v3(text: &str) -> String {
    text.replace("\"bench-scale-v2\"", "\"bench-scale-v3\"")
        .lines()
        .map(|line| {
            match (
                line.find(",\"conflict_classes_avg\":"),
                line.find(",\"phase_nanos\":"),
            ) {
                (Some(a), Some(b)) => format!("{}{}\n", &line[..a], &line[b..]),
                _ => format!("{line}\n"),
            }
        })
        .collect()
}

#[test]
fn scale_v2_and_v3_read_into_the_same_runs() {
    assert!(COMMITTED_V2.contains("\"schema\": \"bench-scale-v2\""));
    assert!(COMMITTED_V2.contains("\"soa_heap_bytes\""));
    let v3 = as_v3(COMMITTED_V2);
    assert!(v3.contains("\"schema\": \"bench-scale-v3\""));
    assert!(!v3.contains("conflict_classes_avg") && !v3.contains("soa_heap_bytes"));

    let old = parse_scale_json(COMMITTED_V2).expect("committed v2 file parses");
    let new = parse_scale_json(&v3).expect("v3 document parses");
    assert!(!old.runs.is_empty());
    assert_eq!(old, new);
}

#[test]
fn scale_v1_and_unknown_schemas_are_rejected_by_name() {
    let v1 = COMMITTED_V2.replace("\"bench-scale-v2\"", "\"bench-scale-v1\"");
    let err = parse_scale_json(&v1).unwrap_err();
    assert!(err.contains("bench-scale-v1"), "{err}");
    let v9 = COMMITTED_V2.replace("\"bench-scale-v2\"", "\"bench-scale-v9\"");
    let err = parse_scale_json(&v9).unwrap_err();
    assert!(err.contains("bench-scale-v9"), "{err}");
}

#[test]
fn moves_applied_lines_validate_with_and_without_conflict_classes() {
    let old_null = r#"{"event":"moves-applied","step":4,"moves":2,"conflict_classes":null}"#;
    let old_count = r#"{"event":"moves-applied","step":4,"moves":2,"conflict_classes":3}"#;
    let new = r#"{"event":"moves-applied","step":4,"moves":2}"#;
    for line in [old_null, old_count, new] {
        assert_eq!(validate_jsonl_line(line), Ok(()), "{line}");
    }
    let rows = |line: &str| parse_trace_jsonl(&format!("{line}\n")).expect("trace parses");
    assert_eq!(rows(old_null), rows(new));
    assert_eq!(rows(old_count), rows(new));
    assert!(validate_jsonl_line(r#"{"event":"moves-applied","step":4}"#).is_err());
}
