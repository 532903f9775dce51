//! `ceio-experiments` — run any (or all) of the paper's tables/figures.
//!
//! ```text
//! ceio-experiments [--quick] [--jobs N] [name ...]
//! ```
//!
//! The selected experiments run one after another, in selection order.
//! Inside each, `runner::run_jobs` runs the independent simulations of its
//! sweep on at most `N` worker threads, so `--jobs N` bounds the
//! simulation threads to `N` (`--jobs 1` is a serial run). Without
//! `--jobs`, `N` is the machine's available parallelism. Every simulation
//! stays single-threaded and deterministic and every report assembles its
//! points in sweep order, so stdout is byte-identical for any `N` (pinned
//! by the `jobs_parallelism` integration test). Each report is printed as
//! soon as its experiment finishes; its wall-clock timing line goes to
//! stderr, where nondeterminism belongs.

// CLI entry point: exiting with status 2 on a bad argument is the
// intended operator-facing behavior.
#![allow(clippy::exit)]

use std::time::Instant;

/// Reject a malformed invocation: exit 2 with a one-line reason on stderr
/// naming the offending flag (the shared CLI contract of this workspace,
/// pinned by `cli_exit_codes.rs`).
fn reject(reason: String) -> ! {
    eprintln!("{reason}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut jobs = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--jobs" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| reject("--jobs needs a value".into()));
                jobs = match v.parse::<usize>() {
                    Ok(n) if n >= 1 => Some(n),
                    _ => reject(format!("--jobs must be a positive integer, got {v:?}")),
                };
            }
            flag if flag.starts_with("--") => reject(format!("unknown flag {flag}")),
            name => wanted.push(name.to_string()),
        }
    }
    let jobs = jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));

    let all = ceio_bench::experiments::all();
    let known: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
    let selected: Vec<_> = if wanted.is_empty() {
        all
    } else {
        all.into_iter()
            .filter(|(name, _)| wanted.iter().any(|w| w == name))
            .collect()
    };
    if selected.is_empty() {
        reject(format!(
            "no matching experiments; known: {}",
            known.join(" ")
        ));
    }

    for (name, run) in selected {
        let t0 = Instant::now();
        let report = run(quick, jobs);
        let secs = t0.elapsed().as_secs_f64();
        println!("=== {name} ({}) ===", if quick { "quick" } else { "full" });
        println!("{report}");
        eprintln!("[{name} took {secs:.1}s]");
    }
}
