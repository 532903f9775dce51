//! Cross-process determinism: two *separate* invocations of the
//! `ceio-trace` binary with identical flags must emit byte-identical
//! CSV. The in-process golden tests (`queue_determinism.rs`) pin the
//! simulation against a stored artifact; this test additionally rules
//! out any per-process ambient state — address-space layout feeding a
//! hash seed, time-of-day, environment-dependent iteration order —
//! which is exactly the class of bug the `cargo xtask analyze`
//! determinism rule exists to keep out.

use std::process::Command;

/// Run the `ceio-trace` binary with `args` and return its stdout bytes.
fn trace_stdout(args: &[&str]) -> Vec<u8> {
    let exe = env!("CARGO_BIN_EXE_ceio-trace");
    let out = Command::new(exe)
        .args(args)
        .env_remove("RUST_LOG")
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {exe}: {e}"));
    assert!(
        out.status.success(),
        "ceio-trace {args:?} exited with {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn same_flags_same_bytes_across_processes() {
    let args = [
        "--policy",
        "ceio",
        "--scenario",
        "mixed",
        "--millis",
        "4",
        "--warmup-ms",
        "1",
        "--seed",
        "7",
        "--queues",
        "2",
    ];
    let a = trace_stdout(&args);
    let b = trace_stdout(&args);
    assert!(
        a.lines_count() > 1,
        "expected a CSV header plus samples, got {} bytes",
        a.len()
    );
    assert_eq!(
        a, b,
        "two processes with identical flags diverged — ambient \
         non-determinism in the data path"
    );
}

/// The failover acceptance pin: a seed-pinned 4-queue run through the
/// canned `queue-flap` plan — watchdog, failover, credit quarantine,
/// recovery and all — must be byte-identical across two independent
/// processes, and must actually differ from the fault-free run (so the
/// identity check cannot pass vacuously on an inert plan).
#[test]
fn queue_flap_same_bytes_across_processes() {
    let flap = [
        "--policy",
        "ceio",
        "--scenario",
        "kv",
        "--millis",
        "3",
        "--warmup-ms",
        "1",
        "--seed",
        "42",
        "--queues",
        "4",
        "--fault-plan",
        "queue-flap",
    ];
    let a = trace_stdout(&flap);
    let b = trace_stdout(&flap);
    assert!(
        a.lines_count() > 1,
        "expected a CSV header plus samples, got {} bytes",
        a.len()
    );
    assert_eq!(
        a, b,
        "two queue-flap processes with identical seed diverged — the \
         failover path leaked ambient non-determinism"
    );
    let fault_free = trace_stdout(&flap[..flap.len() - 2]);
    assert_ne!(
        a, fault_free,
        "queue-flap run is identical to the fault-free run — the plan \
         never perturbed the data path"
    );
}

/// The way-partitioned LLC pin: a *default-config* run (pool model) must
/// emit byte-for-byte the CSV stored in the golden file — from a separate
/// process, so the set-associative refactor cannot have perturbed the
/// default path through any in-process side channel either. The golden
/// flags mirror `queue_determinism::kv_trace_csv` exactly (contended DPDK
/// host, 8 KV flows, 1 ms warmup, 2 ms measured).
#[test]
fn default_config_matches_golden_csv_across_processes() {
    let out = trace_stdout(&[
        "--policy",
        "ceio",
        "--scenario",
        "kv",
        "--millis",
        "2",
        "--warmup-ms",
        "1",
    ]);
    let golden = std::fs::read(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden/queue1_kv_ceio.csv"),
    )
    .expect("read golden CSV");
    assert_eq!(
        out, golden,
        "a default-config (pool-model) ceio-trace run no longer matches \
         the golden CSV — the set-associative LLC work must leave the \
         default path byte-identical"
    );
}

/// The set-associative model must be exactly as deterministic as the
/// pool: two processes with the same `--llc-model setassoc --ddio-ways`
/// flags emit identical bytes — and those bytes must differ from the
/// pool run, so the flag demonstrably reaches the data path.
#[test]
fn setassoc_same_bytes_across_processes() {
    let common = [
        "--policy",
        "ceio",
        "--scenario",
        "kv",
        "--millis",
        "3",
        "--warmup-ms",
        "1",
        "--seed",
        "7",
    ];
    let mut setassoc = common.to_vec();
    setassoc.extend(["--llc-model", "setassoc", "--ddio-ways", "4"]);
    let a = trace_stdout(&setassoc);
    let b = trace_stdout(&setassoc);
    assert!(
        a.lines_count() > 1,
        "expected a CSV header plus samples, got {} bytes",
        a.len()
    );
    assert_eq!(
        a, b,
        "two set-associative runs with identical flags diverged — the \
         way-partitioned model leaked ambient non-determinism"
    );
    let pool = trace_stdout(&common);
    assert_ne!(
        a, pool,
        "setassoc at 4 DDIO ways is identical to the pool run — the \
         --llc-model flag never reached the memory model"
    );
}

#[test]
fn different_scenarios_actually_differ() {
    // Guards the test above against vacuous success (e.g. an empty or
    // constant report making every run trivially identical).
    let kv = trace_stdout(&["--scenario", "kv", "--millis", "4", "--seed", "7"]);
    let mixed = trace_stdout(&["--scenario", "mixed", "--millis", "4", "--seed", "7"]);
    assert_ne!(kv, mixed, "kv and mixed scenarios produced identical CSV");
}

#[test]
fn different_seeds_actually_differ() {
    // `--seed` must pick the run, not only a fault plan's injections: with
    // no plan armed, two seeds still draw different Poisson arrivals.
    let seven = trace_stdout(&["--millis", "2", "--seed", "7"]);
    let eight = trace_stdout(&["--millis", "2", "--seed", "8"]);
    assert_ne!(
        seven, eight,
        "--seed 7 and --seed 8 produced identical CSV — the seed never \
         reached the host"
    );
}

/// Count of `\n`-terminated lines, for the header-plus-samples check.
trait LinesCount {
    fn lines_count(&self) -> usize;
}

impl LinesCount for Vec<u8> {
    fn lines_count(&self) -> usize {
        self.iter().filter(|&&b| b == b'\n').count()
    }
}
