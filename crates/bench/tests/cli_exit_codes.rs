//! Exit-code contract of the operator-facing CLIs: every malformed-spec
//! path (`--slo`, `--fault-plan`, `--queues`, `--scope-interval`,
//! `--ddio-ways`, `--llc-model`, `--policy`, `--scenario`, zero
//! durations, plus missing values and unknown flags) must exit 2 with a
//! one-line reason on stderr naming the offending flag — never a panic,
//! never a silent fallback into a multi-second simulation with the wrong
//! config. An output file that cannot be written exits 1 with a one-line
//! reason. An output flag that the chosen mode never writes
//! (`ceio-inspect --out` without `report`/`timeseries`) is a malformed
//! spec too.
//!
//! Table-driven over both binaries: `ceio-trace` and `ceio-inspect`
//! share their flag grammar (`ceio_bench::cli::RunSpec`), so any
//! divergence in their rejection behavior is itself a bug this test
//! catches. The flight-recorder flags (`--scope-interval`, `--slo`) are
//! `ceio-inspect`'s own: `ceio-trace` rejects them even with a valid
//! value, and it has no `--scope-out`.

use std::process::Command;

/// Every malformed invocation: (case label, extra args, flag token the
/// stderr reason must name).
fn cases() -> Vec<(&'static str, Vec<&'static str>, &'static str)> {
    vec![
        ("zero queues", vec!["--queues", "0"], "--queues"),
        ("non-numeric queues", vec!["--queues", "many"], "--queues"),
        ("missing queues value", vec!["--queues"], "--queues"),
        (
            "malformed scope interval",
            vec!["--scope-interval", "5xs"],
            "--scope-interval",
        ),
        (
            "zero scope interval",
            vec!["--scope-interval", "0ns"],
            "--scope-interval",
        ),
        (
            "missing scope interval value",
            vec!["--scope-interval"],
            "--scope-interval",
        ),
        (
            "slo rule without a watched series",
            vec!["--slo", "alert=a,above=1"],
            "--slo",
        ),
        (
            "slo rule with a bad duration",
            vec!["--slo", "alert=a,when=goodput_gbps,above=1,for=5xs"],
            "--slo",
        ),
        ("missing slo value", vec!["--slo"], "--slo"),
        (
            "unknown fault plan",
            vec!["--fault-plan", "not-a-plan"],
            "--fault-plan",
        ),
        (
            "missing fault plan value",
            vec!["--fault-plan"],
            "--fault-plan",
        ),
        ("zero ddio ways", vec!["--ddio-ways", "0"], "--ddio-ways"),
        (
            "non-numeric ddio ways",
            vec!["--ddio-ways", "six"],
            "--ddio-ways",
        ),
        (
            "missing ddio ways value",
            vec!["--ddio-ways"],
            "--ddio-ways",
        ),
        (
            "more ddio ways than the cache has",
            vec!["--ddio-ways", "13"],
            "--ddio-ways",
        ),
        (
            "unknown llc model",
            vec!["--llc-model", "fully-assoc"],
            "--llc-model",
        ),
        (
            "missing llc model value",
            vec!["--llc-model"],
            "--llc-model",
        ),
        ("unknown policy", vec!["--policy", "bogus"], "bogus"),
        ("missing policy value", vec!["--policy"], "--policy"),
        ("missing scenario value", vec!["--scenario"], "--scenario"),
        ("missing out value", vec!["--out"], "--out"),
        ("unknown scenario", vec!["--scenario", "web"], "--scenario"),
        ("zero millis", vec!["--millis", "0"], "--millis"),
        ("zero warmup", vec!["--warmup-ms", "0"], "--warmup-ms"),
        ("non-numeric seed", vec!["--seed", "lucky"], "--seed"),
        ("unknown flag", vec!["--no-such-flag"], "--no-such-flag"),
    ]
}

/// Flags `ceio-trace` does not take, with values that `ceio-inspect`
/// accepts.
fn not_trace_flags() -> Vec<(&'static str, Vec<&'static str>, &'static str)> {
    vec![
        (
            "scope interval on ceio-trace",
            vec!["--scope-interval", "20us"],
            "--scope-interval",
        ),
        (
            "slo rule on ceio-trace",
            vec!["--slo", "alert=a,when=goodput_gbps,above=1"],
            "--slo",
        ),
        (
            "scope output on ceio-trace",
            vec!["--millis", "1", "--scope-out", "s.csv"],
            "--scope-out",
        ),
    ]
}

fn assert_rejects(bin: &str, label: &str, args: &[&str], token: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn CLI binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{bin} / {label}: expected exit 2, got {:?} (stderr: {stderr:?})",
        out.status.code()
    );
    assert_eq!(
        stderr.lines().count(),
        1,
        "{bin} / {label}: expected a one-line reason, got {stderr:?}"
    );
    assert!(
        stderr.contains(token),
        "{bin} / {label}: stderr must name {token}, got {stderr:?}"
    );
    assert!(
        out.stdout.is_empty(),
        "{bin} / {label}: a rejected invocation must not produce output"
    );
}

#[test]
fn malformed_specs_exit_2_with_one_line_reasons() {
    for bin in [
        env!("CARGO_BIN_EXE_ceio-trace"),
        env!("CARGO_BIN_EXE_ceio-inspect"),
    ] {
        for (label, args, token) in cases() {
            assert_rejects(bin, label, &args, token);
        }
    }
    // `--ring` is `ceio-inspect`'s own flag.
    assert_rejects(
        env!("CARGO_BIN_EXE_ceio-inspect"),
        "zero ring",
        &["--ring", "0"],
        "--ring",
    );
    // An output flag that the chosen mode never writes.
    assert_rejects(
        env!("CARGO_BIN_EXE_ceio-inspect"),
        "report file without a report mode",
        &["--millis", "1", "--out", "x.html"],
        "--out",
    );
    for (label, args, token) in not_trace_flags() {
        assert_rejects(env!("CARGO_BIN_EXE_ceio-trace"), label, &args, token);
    }
}

/// An output path that cannot be written fails the run with exit 1 and a
/// one-line reason naming the path, after a cheap 1 ms run.
#[test]
fn unwritable_outputs_exit_1_with_one_line_reasons() {
    // A path under a regular file can never be created.
    let bad = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out");
    let scratch = std::env::temp_dir().join(format!("ceio-cli-exit-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let ok = |name: &str| scratch.join(name).to_string_lossy().into_owned();
    let (trace, prom) = (ok("trace.json"), ok("metrics.prom"));
    let cases: Vec<(&str, Vec<&str>)> = vec![
        (env!("CARGO_BIN_EXE_ceio-trace"), vec!["--out", bad]),
        (
            env!("CARGO_BIN_EXE_ceio-inspect"),
            vec![
                "timeseries",
                "--scope-interval",
                "100us",
                "--trace-out",
                &trace,
                "--prom-out",
                &prom,
                "--out",
                bad,
            ],
        ),
        (
            env!("CARGO_BIN_EXE_ceio-inspect"),
            vec!["--trace-out", &trace, "--prom-out", bad],
        ),
        (
            env!("CARGO_BIN_EXE_ceio-inspect"),
            vec!["--trace-out", bad, "--prom-out", &prom],
        ),
    ];
    for (bin, extra) in cases {
        // `extra` leads: a ceio-inspect mode must be the first argument.
        let out = Command::new(bin)
            .args(&extra)
            .args(["--millis", "1"])
            .output()
            .expect("spawn CLI binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{bin} {extra:?}: expected exit 1, got {:?} (stderr: {stderr:?})",
            out.status.code()
        );
        assert_eq!(
            stderr.lines().count(),
            1,
            "{bin} {extra:?}: expected a one-line reason, got {stderr:?}"
        );
        assert!(
            stderr.starts_with("cannot write ") && stderr.contains(bad),
            "{bin} {extra:?}: stderr must name the path, got {stderr:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// `ceio-experiments` has its own flag grammar (`--jobs`, experiment
/// names) but the same rejection contract.
#[test]
fn experiments_binary_rejects_malformed_invocations() {
    let bin = env!("CARGO_BIN_EXE_ceio-experiments");
    let cases: Vec<(&str, Vec<&str>, &str)> = vec![
        ("zero jobs", vec!["--jobs", "0"], "--jobs"),
        ("non-numeric jobs", vec!["--jobs", "many"], "--jobs"),
        ("missing jobs value", vec!["--jobs"], "--jobs"),
        ("unknown flag", vec!["--no-such-flag"], "--no-such-flag"),
        (
            "unknown experiment",
            vec!["no-such-experiment"],
            "no matching experiments",
        ),
    ];
    for (label, args, token) in cases {
        assert_rejects(bin, label, &args, token);
    }
}
