//! End-to-end tests of the command-line tools (run as real subprocesses).

use std::path::PathBuf;
use std::process::Command;

use chambolle::imaging::{read_flo, read_pgm, render_pair, write_pgm, Motion, NoiseTexture};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("chambolle_cli_{}_{name}", std::process::id()));
    p
}

/// Writes the test frames under names starting with `tag`, so tests running
/// in parallel never delete each other's inputs.
fn write_test_pair(tag: &str) -> (PathBuf, PathBuf) {
    let scene = NoiseTexture::new(77);
    let pair = render_pair(&scene, 64, 48, Motion::Translation { du: 1.5, dv: -0.5 });
    let p0 = tmp(&format!("{tag}_i0.pgm"));
    let p1 = tmp(&format!("{tag}_i1.pgm"));
    write_pgm(&p0, &pair.i0).expect("write i0");
    write_pgm(&p1, &pair.i1).expect("write i1");
    (p0, p1)
}

#[test]
fn flow_cli_produces_flo_and_ppm() {
    let (p0, p1) = write_test_pair("flo_ppm");
    let flo = tmp("out.flo");
    let ppm = tmp("out.ppm");
    let status = Command::new(env!("CARGO_BIN_EXE_chambolle_flow"))
        .args([
            p0.to_str().unwrap(),
            p1.to_str().unwrap(),
            "--out",
            flo.to_str().unwrap(),
            "--vis",
            ppm.to_str().unwrap(),
            "--iterations",
            "15",
            "--warps",
            "3",
            "--levels",
            "3",
        ])
        .status()
        .expect("spawn chambolle_flow");
    assert!(status.success());

    let flow = read_flo(&flo).expect("read back .flo");
    assert_eq!(flow.dims(), (64, 48));
    // PGM quantization costs accuracy; the motion direction must survive.
    let (mu, mv) = flow.mean();
    assert!(mu > 0.8 && mu < 2.2, "mean u1 = {mu}");
    assert!(mv < 0.0, "mean u2 = {mv}");

    let vis = std::fs::read(&ppm).expect("read ppm");
    assert!(vis.starts_with(b"P6\n64 48\n255\n"));

    for f in [p0, p1, flo, ppm] {
        std::fs::remove_file(f).ok();
    }
}

/// `--help` promises that `--threads` never changes the flow: the 1-thread
/// run solves the two components one after the other, 2 and 3 threads
/// solve them concurrently on the pool.
#[test]
fn flow_cli_threads_write_byte_identical_flo() {
    let (p0, p1) = write_test_pair("threads");
    let runs: Vec<Vec<u8>> = ["1", "2", "3"]
        .iter()
        .map(|threads| {
            let flo = tmp(&format!("threads{threads}.flo"));
            let status = Command::new(env!("CARGO_BIN_EXE_chambolle_flow"))
                .args([
                    p0.to_str().unwrap(),
                    p1.to_str().unwrap(),
                    "--out",
                    flo.to_str().unwrap(),
                    "--warps",
                    "2",
                    "--levels",
                    "3",
                    "--threads",
                    threads,
                ])
                .status()
                .expect("spawn chambolle_flow");
            assert!(status.success(), "--threads {threads}");
            let bytes = std::fs::read(&flo).expect("read .flo");
            std::fs::remove_file(flo).ok();
            bytes
        })
        .collect();
    assert!(runs[0].len() > 12, "a .flo holds a header and the field");
    assert!(runs[1] == runs[0], "--threads 2 changed the flow");
    assert!(runs[2] == runs[0], "--threads 3 changed the flow");
    for f in [p0, p1] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn denoise_cli_writes_telemetry_report() {
    use chambolle::telemetry::json::JsonValue;
    use chambolle::telemetry::report::RunReport;

    let scene = NoiseTexture::new(79);
    let pair = render_pair(&scene, 48, 40, Motion::Translation { du: 0.0, dv: 0.0 });
    let input = tmp("tele_in.pgm");
    write_pgm(&input, &pair.i0).expect("write input");
    let output = tmp("tele_out.pgm");
    let report_path = tmp("tele_report.json");

    let status = Command::new(env!("CARGO_BIN_EXE_chambolle_denoise"))
        .args([
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--iterations",
            "20",
            "--backend",
            "fpga",
            "--telemetry",
            report_path.to_str().unwrap(),
        ])
        .status()
        .expect("spawn chambolle_denoise");
    assert!(status.success());

    let text = std::fs::read_to_string(&report_path).expect("report written");
    let doc = JsonValue::parse(&text).expect("valid JSON report");
    RunReport::validate(&doc).expect("schema-valid report");
    assert_eq!(
        doc.get("tool").and_then(JsonValue::as_str),
        Some("chambolle_denoise")
    );
    assert_eq!(
        doc.get_path("sections.run.backend")
            .and_then(JsonValue::as_str),
        Some("fpga")
    );
    // The fpga backend must have reported cycle-level counters.
    assert!(
        doc.get_path("metrics.hwsim.cycles.value")
            .and_then(JsonValue::as_f64)
            .is_some_and(|c| c > 0.0),
        "accelerator cycles missing from report"
    );

    for f in [input, output, report_path] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn flow_cli_rejects_bad_usage() {
    let status = Command::new(env!("CARGO_BIN_EXE_chambolle_flow"))
        .arg("only-one.pgm")
        .status()
        .expect("spawn chambolle_flow");
    assert_eq!(status.code(), Some(2));

    let status = Command::new(env!("CARGO_BIN_EXE_chambolle_flow"))
        .args(["a.pgm", "b.pgm", "--backend", "quantum"])
        .status()
        .expect("spawn chambolle_flow");
    assert_eq!(status.code(), Some(2));
}

/// The 2-D tiled backend is gone and an unknown one never existed: both
/// bins reject them as usage errors, before touching any file.
#[test]
fn both_clis_reject_the_tiled_backend_as_usage() {
    for bin in [
        env!("CARGO_BIN_EXE_chambolle_denoise"),
        env!("CARGO_BIN_EXE_chambolle_flow"),
    ] {
        for backend in ["tiled", "quantum"] {
            let status = Command::new(bin)
                .args(["/nonexistent/a.pgm", "/nonexistent/b.pgm"])
                .args(["--backend", backend])
                .status()
                .expect("spawn cli");
            assert_eq!(status.code(), Some(2), "{bin} --backend {backend}");
        }
    }
}

#[test]
fn flow_cli_reports_missing_files() {
    let status = Command::new(env!("CARGO_BIN_EXE_chambolle_flow"))
        .args(["/nonexistent/a.pgm", "/nonexistent/b.pgm"])
        .status()
        .expect("spawn chambolle_flow");
    assert_eq!(status.code(), Some(1));
}

/// `--profile` (and the `CHAMBOLLE_PROFILE` env var) steer the schedule but
/// never the pixels: a valid profile with a different pool width produces a
/// byte-identical output, as does `--threads 1`, and a corrupt profile
/// falls back with a warning instead of failing the run.
#[test]
fn denoise_cli_profiles_are_bit_exact_and_fall_back() {
    use chambolle::tune::{Fingerprint, Profile, Tunables};

    let scene = NoiseTexture::new(80);
    let pair = render_pair(&scene, 48, 40, Motion::Translation { du: 0.0, dv: 0.0 });
    let input = tmp("prof_in.pgm");
    write_pgm(&input, &pair.i0).expect("write input");

    let run = |out: &PathBuf, extra: &[&str], env: &[(&str, &str)]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_chambolle_denoise"));
        cmd.args([input.to_str().unwrap(), out.to_str().unwrap()])
            .args(["--iterations", "25"])
            .args(extra);
        for (k, v) in env {
            cmd.env(k, v);
        }
        let output = cmd.output().expect("spawn chambolle_denoise");
        assert!(output.status.success(), "denoise run failed: {output:?}");
        String::from_utf8_lossy(&output.stderr).into_owned()
    };

    let default_out = tmp("prof_default.pgm");
    run(&default_out, &[], &[]);
    let reference = std::fs::read(&default_out).expect("read default output");

    // `--threads 1` runs the pool inline: the sequential loop, same bytes.
    let inline_out = tmp("prof_inline.pgm");
    run(&inline_out, &["--threads", "1"], &[]);
    assert_eq!(
        std::fs::read(&inline_out).expect("read inline output"),
        reference,
        "--threads 1 must not change pixels"
    );

    // A valid profile with a different schedule: same pixels, byte for byte.
    let profile_path = tmp("prof_valid.json");
    let tunables = Tunables {
        threads: 3,
        ..Tunables::default()
    };
    Profile::new(Fingerprint::detect(), tunables)
        .save(&profile_path)
        .expect("save profile");
    let flag_out = tmp("prof_flag.pgm");
    run(
        &flag_out,
        &["--profile", profile_path.to_str().unwrap()],
        &[],
    );
    assert_eq!(
        std::fs::read(&flag_out).expect("read profiled output"),
        reference,
        "--profile must not change pixels"
    );

    let env_out = tmp("prof_env.pgm");
    run(
        &env_out,
        &[],
        &[("CHAMBOLLE_PROFILE", profile_path.to_str().unwrap())],
    );
    assert_eq!(
        std::fs::read(&env_out).expect("read env-profiled output"),
        reference,
        "CHAMBOLLE_PROFILE must not change pixels"
    );

    // A corrupt profile warns and falls back; the run still succeeds.
    let bad_path = tmp("prof_bad.json");
    std::fs::write(&bad_path, "{ not json").expect("write bad profile");
    let bad_out = tmp("prof_bad.pgm");
    let stderr = run(&bad_out, &["--profile", bad_path.to_str().unwrap()], &[]);
    assert!(
        stderr.contains("tuning profile"),
        "fallback must warn on stderr, got: {stderr}"
    );
    assert_eq!(
        std::fs::read(&bad_out).expect("read fallback output"),
        reference,
        "fallback must reproduce the default output"
    );

    for f in [
        input,
        default_out,
        inline_out,
        profile_path,
        flag_out,
        env_out,
        bad_path,
        bad_out,
    ] {
        std::fs::remove_file(f).ok();
    }
}

/// Both bins reject a bare `--profile` with usage exit code 2, and the flow
/// bin accepts the flag.
#[test]
fn profile_flag_usage_errors() {
    let status = Command::new(env!("CARGO_BIN_EXE_chambolle_denoise"))
        .args(["a.pgm", "b.pgm", "--profile"])
        .status()
        .expect("spawn chambolle_denoise");
    assert_eq!(status.code(), Some(2));

    let status = Command::new(env!("CARGO_BIN_EXE_chambolle_flow"))
        .args(["a.pgm", "b.pgm", "--profile"])
        .status()
        .expect("spawn chambolle_flow");
    assert_eq!(status.code(), Some(2));
}

#[test]
fn denoise_cli_roundtrip() {
    let scene = NoiseTexture::new(78);
    let pair = render_pair(&scene, 48, 40, Motion::Translation { du: 0.0, dv: 0.0 });
    let input = tmp("noisy.pgm");
    write_pgm(&input, &pair.i0).expect("write input");
    let output = tmp("denoised.pgm");

    let status = Command::new(env!("CARGO_BIN_EXE_chambolle_denoise"))
        .args([
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--iterations",
            "40",
        ])
        .status()
        .expect("spawn chambolle_denoise");
    assert!(status.success());
    let u = read_pgm(&output).expect("read output");
    assert_eq!(u.dims(), (48, 40));

    // Early-stopping variant also works.
    let status = Command::new(env!("CARGO_BIN_EXE_chambolle_denoise"))
        .args([
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--gap-tol",
            "5.0",
        ])
        .status()
        .expect("spawn chambolle_denoise");
    assert!(status.success());

    std::fs::remove_file(input).ok();
    std::fs::remove_file(output).ok();
}
