//! Two-process byte-identity: `ceio-experiments` stdout must not depend on
//! `--jobs`.
//!
//! Inside each experiment `runner::run_jobs` hands sweep points to the
//! `--jobs` workers in whatever order they free up, and the report is
//! assembled in point order, so completion-order races must never leak
//! into stdout. Wall-clock timing lines go to stderr precisely so they are
//! excluded from this comparison. The selection pairs a nine-point sweep
//! (`table4`) with a two-run target (`failover`), so widths 2 and 4 both
//! split a target's points across workers.

use std::process::Command;

#[test]
fn stdout_is_identical_at_jobs_1_2_and_4() {
    let bin = env!("CARGO_BIN_EXE_ceio-experiments");
    let run = |jobs: &str| {
        let out = Command::new(bin)
            .args(["--quick", "--jobs", jobs, "table4", "failover"])
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
    assert!(
        !serial.is_empty(),
        "selection must produce a non-empty report"
    );
    for jobs in ["2", "4"] {
        let parallel = run(jobs);
        assert_eq!(
            serial,
            parallel,
            "stdout must be byte-identical regardless of --jobs \
             (--jobs 1: {:?}, --jobs {jobs}: {:?})",
            String::from_utf8_lossy(&serial),
            String::from_utf8_lossy(&parallel)
        );
    }
}
