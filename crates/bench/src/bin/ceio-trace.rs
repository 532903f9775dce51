//! `ceio-trace` — run one scenario and dump its measurement time series as
//! CSV (for plotting the Fig. 4/10-style curves).
//!
//! ```text
//! ceio-trace [--policy baseline|hostcc|shring|ceio] \
//!            [--scenario kv|mixed|dynamic|burst]    \
//!            [--millis N] [--warmup-ms N] [--out FILE] \
//!            [--seed N] [--fault-plan SPEC] [--queues N] \
//!            [--llc-model pool|setassoc] [--ddio-ways N]
//! ```
//!
//! Columns: `t_ms, involved_mpps, bypass_gbps, llc_miss_rate, fast_gbps,
//! slow_gbps, drops`.
//!
//! `--fault-plan` accepts a canned plan name (`smoke`, `credit-storm`,
//! `dma-flaky`, `nic-pressure`) or a comma-separated `key=value` spec
//! (`dma-write-fault=0.05,consumer-pause=10us`). A malformed spec exits 2.
//! `--seed` seeds both the host RNG (traffic arrivals) and the injection
//! RNG; two invocations with the same flags emit byte-identical CSV.
//!
//! `--llc-model` selects the LLC model backing the memory controller
//! (`pool` is the seed default; `setassoc` is the way-partitioned
//! set-associative model). `--ddio-ways` sets the DDIO-reachable way
//! count (§4.1: 6 of 12) — the credit pool re-derives from it under
//! `setassoc`. A way count the geometry cannot hold exits 2.
//!
//! The flight recorder and SLO alerts (`--scope-interval`, `--slo`) are
//! `ceio-inspect`'s: `ceio-inspect timeseries` writes the recorded series
//! as CSV.
//!
//! The shared flags are parsed by `ceio_bench::cli::RunSpec`: a malformed
//! or missing value exits 2 with a one-line reason naming the flag. An
//! output file that cannot be written exits 1 with a one-line reason.

use ceio_bench::cli::{exit_status, flag_value, write_output, RunSpec};
use ceio_bench::runner::{run_one_with_plan, series_csv};
use ceio_bench::workloads;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = None;
    let spec = RunSpec::parse(args.iter().map(String::as_str), 10, |flag, value| {
        if flag != "--out" {
            return Ok(false);
        }
        out = Some(flag_value(flag, value)?);
        Ok(true)
    });
    exit_status(spec, |spec| run(spec, out))
}

fn run(spec: RunSpec, out: Option<&str>) -> Result<(), String> {
    let (scen, app) = spec.workload();
    let (report, _) = run_one_with_plan(
        spec.host.clone(),
        spec.policy,
        scen,
        workloads::app_factory(app),
        spec.warmup(),
        spec.measure(),
        spec.plan.as_ref(),
    );
    let csv = series_csv(&report);
    let n = csv.lines().count().saturating_sub(1);
    match out {
        Some(path) => {
            write_output(path, &csv)?;
            eprintln!(
                "{path}: {n} samples of {} ({} scenario) written",
                report.policy,
                spec.scenario.name()
            );
        }
        None => print!("{csv}"),
    }
    Ok(())
}
