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

/// No tuning profile reaches a solve: the pool width alone steers the
/// schedule, every width writes the same bytes, and `CHAMBOLLE_PROFILE`
/// pointing at a valid or a corrupt profile changes none of them.
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
        std::fs::read(out).expect("read output")
    };

    let default_out = tmp("prof_default.pgm");
    let reference = run(&default_out, &[], &[]);

    // `--threads 1` runs the pool inline: the sequential loop, same bytes.
    let width_out = tmp("prof_width.pgm");
    for threads in ["1", "3"] {
        assert_eq!(
            run(&width_out, &["--threads", threads], &[]),
            reference,
            "--threads {threads} must not change pixels"
        );
    }

    // A valid profile for this host, and a corrupt one: neither is read.
    let profile_path = tmp("prof_valid.json");
    let tunables = Tunables {
        batch_window: 3,
        ..Tunables::default()
    };
    Profile::new(Fingerprint::detect(), tunables)
        .save(&profile_path)
        .expect("save profile");
    let bad_path = tmp("prof_bad.json");
    std::fs::write(&bad_path, "{ not json").expect("write bad profile");
    let env_out = tmp("prof_env.pgm");
    for path in [&profile_path, &bad_path] {
        let env = [("CHAMBOLLE_PROFILE", path.to_str().unwrap())];
        assert_eq!(
            run(&env_out, &[], &env),
            reference,
            "CHAMBOLLE_PROFILE={path:?} must not change pixels"
        );
    }

    for f in [
        input,
        default_out,
        width_out,
        profile_path,
        bad_path,
        env_out,
    ] {
        std::fs::remove_file(f).ok();
    }
}

/// `--gap-tol` runs the monitored solve on the `--threads` pool: every
/// width stops after the same number of iterations, well inside the
/// budget, with the same bytes.
#[test]
fn denoise_cli_gap_tol_runs_on_the_threads_pool() {
    let scene = NoiseTexture::new(81);
    let pair = render_pair(&scene, 48, 40, Motion::Translation { du: 0.0, dv: 0.0 });
    let input = tmp("gap_in.pgm");
    write_pgm(&input, &pair.i0).expect("write input");
    let output = tmp("gap_out.pgm");

    let runs: Vec<(Vec<u8>, String)> = ["1", "3"]
        .iter()
        .map(|threads| {
            let out = Command::new(env!("CARGO_BIN_EXE_chambolle_denoise"))
                .args([input.to_str().unwrap(), output.to_str().unwrap()])
                .args(["--iterations", "1000", "--gap-tol", "1.0"])
                .args(["--threads", threads])
                .output()
                .expect("spawn chambolle_denoise");
            assert!(out.status.success(), "--threads {threads}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let converged = stderr
                .lines()
                .find(|l| l.starts_with("converged in "))
                .expect("the monitored solve reports its iterations")
                .to_string();
            (std::fs::read(&output).expect("read output"), converged)
        })
        .collect();
    assert_eq!(runs[0].1, runs[1].1, "iteration counts differ");
    assert!(
        !runs[0].1.starts_with("converged in 1000 "),
        "the gap check must stop the solve early: {}",
        runs[0].1
    );
    assert!(runs[0].0 == runs[1].0, "--threads 3 changed the pixels");

    std::fs::remove_file(input).ok();
    std::fs::remove_file(output).ok();
}

/// `--profile` is gone from both bins: passing it, with a value, is a
/// usage error (exit 2) before any input is read.
#[test]
fn profile_flag_usage_errors() {
    for bin in [
        env!("CARGO_BIN_EXE_chambolle_denoise"),
        env!("CARGO_BIN_EXE_chambolle_flow"),
    ] {
        let status = Command::new(bin)
            .args(["a.pgm", "b.pgm", "--profile", "p.json"])
            .status()
            .expect("spawn cli");
        assert_eq!(status.code(), Some(2), "{bin} --profile p.json");
    }
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
