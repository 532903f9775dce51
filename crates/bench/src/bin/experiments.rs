//! `ceio-experiments` — run any (or all) of the paper's tables/figures.
//!
//! ```text
//! ceio-experiments [--quick] [--jobs N] [name ...]
//! ```
//!
//! `--jobs N` runs at most `N` of the selected experiments at once. It
//! does not bound the thread count: inside an experiment,
//! `runner::run_jobs` still runs every sweep point on its own thread, so
//! `--jobs 1` is not a serial run. Every simulation stays single-threaded
//! and deterministic. Reports are buffered and printed on stdout in
//! selection order, so stdout is byte-identical for any `N` (pinned by the
//! `jobs_parallelism` integration test). Wall-clock timing lines go to
//! stderr, where nondeterminism belongs.

// CLI entry point: exiting with status 2 on a bad argument is the
// intended operator-facing behavior.
#![allow(clippy::exit)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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
    let mut jobs: usize = 1;
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
                    Ok(n) if n >= 1 => n,
                    _ => reject(format!("--jobs must be a positive integer, got {v:?}")),
                };
            }
            flag if flag.starts_with("--") => reject(format!("unknown flag {flag}")),
            name => wanted.push(name.to_string()),
        }
    }

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

    // One shared code path for any job count: workers pull the next
    // experiment index from an atomic counter and park (report, seconds)
    // into its slot; the main thread then prints slots in selection order.
    let n = selected.len();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<Option<(String, f64)>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let (_, f) = selected[i];
                let t0 = Instant::now();
                let report = f(quick);
                let secs = t0.elapsed().as_secs_f64();
                // On Err a sibling panicked while holding the lock; the
                // scope re-raises that panic, so just drop our result.
                if let Ok(mut slots) = done.lock() {
                    slots[i] = Some((report, secs));
                }
            });
        }
    });
    let done = done.into_inner().unwrap_or_else(|e| e.into_inner());
    for ((name, _), slot) in selected.iter().zip(done) {
        let (report, secs) =
            slot.unwrap_or_else(|| panic!("invariant: {name} joined without a result"));
        println!("=== {name} ({}) ===", if quick { "quick" } else { "full" });
        println!("{report}");
        eprintln!("[{name} took {secs:.1}s]");
    }
}
