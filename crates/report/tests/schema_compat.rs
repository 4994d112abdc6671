//! The `bench-scale-v3` reader rejects every other schema by name,
//! and `moves-applied` trace lines with the retired `conflict_classes`
//! member still parse, into the same event as the lines without it.

use ssr_obs::trace::parse_event;
use ssr_obs::TraceEvent;
use ssr_report::reader::parse_scale_json;

/// A committed sweep, written as `bench-scale-v3`.
const COMMITTED: &str = include_str!("golden/bench-scale-v3.json");

#[test]
fn scale_v1_and_unknown_schemas_are_rejected_by_name() {
    let committed = parse_scale_json(COMMITTED).expect("committed v3 file parses");
    assert!(!committed.runs.is_empty());
    for (schema, says) in [
        ("bench-scale-v1", "re-run the `scale` bin"),
        ("bench-scale-v2", "expected `bench-scale-v3`"),
        ("bench-scale-v9", "expected `bench-scale-v3`"),
    ] {
        let text = COMMITTED.replace("\"bench-scale-v3\"", &format!("\"{schema}\""));
        let err = parse_scale_json(&text).unwrap_err();
        assert!(err.contains(schema) && err.contains(says), "{err}");
    }
}

#[test]
fn moves_applied_lines_validate_with_and_without_conflict_classes() {
    let old_null = r#"{"event":"moves-applied","step":4,"moves":2,"conflict_classes":null}"#;
    let old_count = r#"{"event":"moves-applied","step":4,"moves":2,"conflict_classes":3}"#;
    let new = r#"{"event":"moves-applied","step":4,"moves":2}"#;
    let event = TraceEvent::MovesApplied { step: 4, moves: 2 };
    for line in [old_null, old_count, new] {
        assert_eq!(parse_event(line), Ok(event), "{line}");
    }
    assert!(parse_event(r#"{"event":"moves-applied","step":4}"#).is_err());
}
