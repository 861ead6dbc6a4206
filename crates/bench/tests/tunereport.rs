//! Integration tests for the `tune` CLI surface and the `BENCH_pr9.json`
//! schema: flag parsing through the public library API, and validation of
//! a pr9 document assembled from a real search outcome — the same shape
//! the binary emits — plus rejection of every attestation the schema
//! demands.

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

/// Real searches over the smoke solver grid and the smoke service grid,
/// as the binary runs them, driven by a synthetic cost so the test is fast
/// and deterministic.
fn searched_outcomes() -> (SearchOutcome, SearchOutcome) {
    let search = |space: &SearchSpace| {
        let cost = |t: &Tunables| {
            t.validate().ok()?;
            Some(t.threads.abs_diff(4) as f64 + t.batch_window as f64 + 10.0)
        };
        coordinate_descent(
            space,
            Tunables::default(),
            &SearchOptions::default(),
            &Telemetry::disabled(),
            &mut cost.clone(),
            &mut cost.clone(),
        )
        .expect("measurable baseline")
    };
    (
        search(&SearchSpace::smoke(4)),
        search(&SearchSpace::service(true)),
    )
}

/// Assembles the pr9 document the binary emits from its two search
/// outcomes.
fn pr9_doc((solver, service): &(SearchOutcome, SearchOutcome)) -> JsonValue {
    let workload = |name: &str, o: &SearchOutcome| {
        JsonValue::Object(vec![
            ("name".into(), name.into()),
            (
                "dimensions_searched".into(),
                (o.dimensions_searched as u64).into(),
            ),
            ("trials".into(), (o.trials.len() as u64).into()),
            ("pruned".into(), (o.pruned as u64).into()),
            ("baseline_proxy_ms".into(), o.baseline_proxy_ms.into()),
            ("best_proxy_ms".into(), o.best_proxy_ms.into()),
            ("baseline_full_ms".into(), o.baseline_full_ms.into()),
            ("best_full_ms".into(), o.best_full_ms.into()),
            ("speedup".into(), o.speedup().into()),
            ("best".into(), o.best.to_json()),
        ])
    };
    JsonValue::Object(vec![
        ("schema".into(), SCHEMA.into()),
        ("bench".into(), "pr9".into()),
        ("mode".into(), "smoke".into()),
        ("fingerprint".into(), Fingerprint::detect().to_json()),
        (
            "workloads".into(),
            JsonValue::Array(vec![
                workload("banded_denoise", solver),
                workload("service_replay", service),
            ]),
        ),
        (
            "dimensions_searched_total".into(),
            ((solver.dimensions_searched + service.dimensions_searched) as u64).into(),
        ),
        ("best".into(), solver.best.to_json()),
        (
            "profile".into(),
            JsonValue::Object(vec![
                ("path".into(), "chambolle.profile.json".into()),
                ("reloaded".into(), JsonValue::Bool(true)),
                ("bit_identical".into(), JsonValue::Bool(true)),
                ("fast_within_tolerance".into(), JsonValue::Bool(true)),
                ("numerics".into(), "auto".into()),
            ]),
        ),
    ])
}

#[test]
fn a_document_from_a_real_search_outcome_validates() {
    let outcomes = searched_outcomes();
    let (solver, service) = &outcomes;
    assert!(
        solver.dimensions_searched + service.dimensions_searched >= MIN_DIMENSIONS,
        "the smoke grids must satisfy the dimension floor together"
    );
    let text = pr9_doc(&outcomes).to_string_pretty();
    validate_tuning(&text).expect("pr9 document validates");
}

#[test]
fn the_validator_rejects_broken_attestations() {
    let outcomes = searched_outcomes();
    let (solver, service) = &outcomes;
    let good = pr9_doc(&outcomes).to_string_pretty();

    // Wrong bench identifier.
    let wrong_bench = good.replace("\"pr9\"", "\"pr8\"");
    assert!(validate_tuning(&wrong_bench).is_err());

    // Too few searched dimensions.
    let dims = format!(
        "\"dimensions_searched_total\": {}",
        solver.dimensions_searched + service.dimensions_searched
    );
    let shallow = good.replace(&dims, "\"dimensions_searched_total\": 2");
    assert!(
        validate_tuning(&shallow).is_err(),
        "fewer than {MIN_DIMENSIONS} dimensions must be rejected"
    );

    // A profile that did not reload, or changed pixels, is no profile.
    let unreloaded = good.replace("\"reloaded\": true", "\"reloaded\": false");
    assert!(validate_tuning(&unreloaded).is_err());
    let inexact = good.replace("\"bit_identical\": true", "\"bit_identical\": false");
    assert!(validate_tuning(&inexact).is_err());

    // A Fast winner outside the tolerance envelope, or a profile that does
    // not say which numerics tier it persisted, is rejected too.
    let breached = good.replace(
        "\"fast_within_tolerance\": true",
        "\"fast_within_tolerance\": false",
    );
    assert!(validate_tuning(&breached).is_err());
    let tierless = good.replace("\"numerics\": \"auto\"", "\"numerics\": \"quantum\"");
    assert!(validate_tuning(&tierless).is_err());

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
