//! Integration tests for the `tune` CLI surface and the `BENCH_pr9.json`
//! schema: flag parsing through the public library API, and validation of
//! a pr9 document assembled from a real search outcome — the same shape
//! the binary emits — plus rejection of every broken attestation.

use chambolle_bench::tunereport::{parse_args, validate_tuning, MIN_DIMENSIONS, SCHEMA};
use chambolle_telemetry::json::JsonValue;
use chambolle_telemetry::Telemetry;
use chambolle_tune::{
    coordinate_descent, Fingerprint, SearchOptions, SearchOutcome, SearchSpace, Tunables,
};

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_string()).collect()
}

#[test]
fn tune_flags_round_trip_through_the_public_parser() {
    let args = parse_args(&strings(&["--smoke", "--out", "r.json"])).expect("valid command line");
    assert!(args.smoke);
    assert_eq!(args.out_path(), "r.json");
    assert_eq!(args.profile_path(), chambolle_tune::DEFAULT_PROFILE_PATH);

    let defaulted = parse_args(&[]).expect("valid command line");
    assert_eq!(defaulted.out_path(), "BENCH_pr9.json");
    assert!(parse_args(&strings(&["--profile-out"])).is_err());
    assert!(parse_args(&strings(&["--bogus"])).is_err());
}

/// A real search over the smoke service grid, as the binary runs it,
/// driven by a synthetic cost so the test is fast and deterministic.
fn searched_outcome() -> SearchOutcome {
    let cost = |t: &Tunables| {
        t.validate().ok()?;
        Some(t.batch_window.abs_diff(4) as f64 + 10.0)
    };
    coordinate_descent(
        &SearchSpace::service(true),
        Tunables::default(),
        &SearchOptions::default(),
        &Telemetry::disabled(),
        &mut cost.clone(),
        &mut cost.clone(),
    )
    .expect("measurable baseline")
}

/// Assembles the pr9 document the binary emits from its search outcome.
fn pr9_doc(service: &SearchOutcome) -> JsonValue {
    JsonValue::Object(vec![
        ("schema".into(), SCHEMA.into()),
        ("bench".into(), "pr9".into()),
        ("mode".into(), "smoke".into()),
        ("fingerprint".into(), Fingerprint::detect().to_json()),
        (
            "workloads".into(),
            JsonValue::Array(vec![JsonValue::Object(vec![
                ("name".into(), "service_replay".into()),
                (
                    "dimensions_searched".into(),
                    (service.dimensions_searched as u64).into(),
                ),
                ("trials".into(), (service.trials.len() as u64).into()),
                ("pruned".into(), (service.pruned as u64).into()),
                ("baseline_proxy_ms".into(), service.baseline_proxy_ms.into()),
                ("best_proxy_ms".into(), service.best_proxy_ms.into()),
                ("baseline_full_ms".into(), service.baseline_full_ms.into()),
                ("best_full_ms".into(), service.best_full_ms.into()),
                ("speedup".into(), service.speedup().into()),
                ("best".into(), service.best.to_json()),
            ])]),
        ),
        (
            "dimensions_searched_total".into(),
            (service.dimensions_searched as u64).into(),
        ),
        ("best".into(), service.best.to_json()),
        (
            "profile".into(),
            JsonValue::Object(vec![
                ("path".into(), "chambolle.profile.json".into()),
                ("reloaded".into(), JsonValue::Bool(true)),
            ]),
        ),
    ])
}

#[test]
fn a_document_from_a_real_search_outcome_validates() {
    let service = searched_outcome();
    assert!(
        service.dimensions_searched >= MIN_DIMENSIONS,
        "the smoke grid must satisfy the dimension floor"
    );
    let text = pr9_doc(&service).to_string_pretty();
    validate_tuning(&text).expect("pr9 document validates");
}

#[test]
fn the_validator_rejects_broken_attestations() {
    let service = searched_outcome();
    let good = pr9_doc(&service).to_string_pretty();

    // Wrong bench identifier.
    let wrong_bench = good.replace("\"pr9\"", "\"pr8\"");
    assert!(validate_tuning(&wrong_bench).is_err());

    // Too few searched dimensions.
    let dims = format!(
        "\"dimensions_searched_total\": {}",
        service.dimensions_searched
    );
    let shallow = good.replace(&dims, "\"dimensions_searched_total\": 0");
    assert!(
        validate_tuning(&shallow).is_err(),
        "fewer than {MIN_DIMENSIONS} dimensions must be rejected"
    );

    // A profile that did not reload is no profile.
    let unreloaded = good.replace("\"reloaded\": true", "\"reloaded\": false");
    assert!(validate_tuning(&unreloaded).is_err());

    // No workloads, no report.
    let doc = JsonValue::parse(&good).unwrap();
    let JsonValue::Object(mut fields) = doc else {
        panic!("document is an object")
    };
    for (key, value) in &mut fields {
        if key == "workloads" {
            *value = JsonValue::Array(vec![]);
        }
    }
    assert!(validate_tuning(&JsonValue::Object(fields).to_string()).is_err());
}
