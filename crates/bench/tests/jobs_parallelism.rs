//! Two-process byte-identity: `ceio-experiments --jobs 4` must produce
//! stdout byte-identical to `--jobs 1` over the same selection.
//!
//! The runner buffers every experiment's report and prints in selection
//! order, so completion-order races on worker threads must never leak into
//! stdout. Wall-clock timing lines go to stderr precisely so they are
//! excluded from this comparison. The selection here is the two cheapest
//! experiments.

use std::process::Command;

#[test]
fn jobs_4_stdout_matches_jobs_1() {
    let bin = env!("CARGO_BIN_EXE_ceio-experiments");
    let run = |jobs: &str| {
        let out = Command::new(bin)
            .args(["--quick", "--jobs", jobs, "table3", "failover"])
            .output()
            .expect("spawn ceio-experiments");
        assert!(
            out.status.success(),
            "--jobs {jobs} run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let serial = run("1");
    let parallel = run("4");
    assert!(
        !serial.is_empty(),
        "selection must produce a non-empty report"
    );
    assert_eq!(
        serial,
        parallel,
        "stdout must be byte-identical regardless of --jobs \
         (serial: {:?}, parallel: {:?})",
        String::from_utf8_lossy(&serial),
        String::from_utf8_lossy(&parallel)
    );
}
