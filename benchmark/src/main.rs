//! The benchmark's command line.
//!
//! ```text
//! ceio-benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//!                [--runs K] [--out FILE]
//! ceio-benchmark --compare OLD[:SET] NEW[:SET]
//! ```
//!
//! Each run of each workload executes in a child process of its own (the
//! binary re-executes itself), one at a time: peak RSS is then per
//! workload and no more than one simulation thread ever runs. Metrics
//! print as `workload metric value unit` lines; the last line of standard
//! output is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. Exit status: 0 when every run is correct, 1 when any run
//! failed (or, with `--compare`, any verdict is worse), 2 on bad usage.

use ceio_benchmark::compare;
use ceio_benchmark::json::Json;
use ceio_benchmark::metrics::median;
use ceio_benchmark::record;
use ceio_benchmark::workloads::{Workload, DEFAULT_SEED, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

const USAGE: &str = "usage: ceio-benchmark [--workload NAME]... [--seed N] [--seconds S] \
[--trace 0|1] [--runs K] [--out FILE]\n       ceio-benchmark --compare OLD[:SET] NEW[:SET]";

/// Seconds measured per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    out: Option<String>,
    child: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        runs: 1,
        out: None,
        child: false,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = val("a workload name")?;
                let w = Workload::find(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?} (known: {})", names.join(", "))
                })?;
                a.workloads.push(w);
            }
            "--seed" => {
                let s = val("a number")?;
                let parsed = match s.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => s.parse(),
                };
                a.seed = parsed.map_err(|_| format!("bad --seed {s:?}"))?;
            }
            "--seconds" => {
                let s = val("a number of seconds")?;
                a.seconds = s
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite() && *x > 0.0 && *x <= 3600.0)
                    .ok_or(format!("bad --seconds {s:?} (want 0 < S <= 3600)"))?;
            }
            "--trace" => {
                a.traced = match val("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?} (want 0 or 1)")),
                };
            }
            "--runs" => {
                let s = val("a count")?;
                a.runs = s
                    .parse()
                    .ok()
                    .filter(|k| (1..=100).contains(k))
                    .ok_or(format!("bad --runs {s:?} (want 1..=100)"))?;
            }
            "--out" => a.out = Some(val("a file")?),
            "--child" => a.child = true,
            "--compare" => {
                let old = val("OLD and NEW files")?;
                let new = val("OLD and NEW files")?;
                a.compare = Some((old, new));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().collect();
    }
    if a.child && a.workloads.len() != 1 {
        return Err("--child runs exactly one workload".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ceio-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((old, new)) = &args.compare {
        return run_compare(old, new);
    }
    if args.child {
        let rec = record::measure(
            args.workloads[0],
            args.seed,
            Duration::from_secs_f64(args.seconds),
            args.traced,
        );
        println!("{}", rec.to_json());
        return ExitCode::SUCCESS;
    }
    let mut records = Vec::new();
    for &w in &args.workloads {
        for _ in 0..args.runs {
            let rec = run_child(w, &args);
            print_record(&rec);
            records.push(rec);
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = append_set(path, &args, &records) {
            eprintln!("ceio-benchmark: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    let summary = summarize(&records, args.workloads.len() > 1);
    println!("{summary}");
    if summary.get("correct") == Some(&Json::Bool(true)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run one workload in a child process and return its record; a child
/// that crashes or prints no record counts as one failed run.
fn run_child(w: &'static Workload, args: &Args) -> Json {
    let exe = std::env::current_exe();
    let out = exe.and_then(|exe| {
        Command::new(exe)
            .args(["--child", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
    });
    let parsed = match &out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .ok_or_else(|| "child printed no record".to_string()),
        Ok(o) => Err(format!("child exited with {}", o.status)),
        Err(e) => Err(format!("cannot start child: {e}")),
    };
    parsed.unwrap_or_else(|why| {
        let mut rec = record::Record::new(w, args.seed, args.traced);
        rec.attempted = 1;
        rec.failed = 1;
        rec.failures.push(why);
        rec.to_json()
    })
}

fn num(rec: &Json, key: &str) -> f64 {
    rec.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Print a record as `workload metric value unit` lines; failures go to
/// standard error.
fn print_record(rec: &Json) {
    let w = rec.get("workload").and_then(Json::as_str).unwrap_or("?");
    for (name, m) in rec.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        let v = m.get("value").map(Json::to_string).unwrap_or_default();
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{w} {name} {v} {unit}");
    }
    println!("{w} runs {} count", num(rec, "attempted"));
    println!("{w} runs_failed {} count", num(rec, "failed"));
    if let Some(d) = rec.get("digest").and_then(Json::as_str) {
        let status = rec
            .get("digest_status")
            .and_then(Json::as_str)
            .unwrap_or("?");
        println!("{w} digest {d} {status}");
    }
    for f in rec.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
        eprintln!("{w}: FAILED {}", f.as_str().unwrap_or("?"));
    }
}

/// The final line: totals, and each metric's median over runs (prefixed
/// with the workload when several ran).
fn summarize(records: &[Json], prefix: bool) -> Json {
    let attempted: f64 = records.iter().map(|r| num(r, "attempted")).sum();
    let failed: f64 = records.iter().map(|r| num(r, "failed")).sum();
    let correct = !records.is_empty()
        && records
            .iter()
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
    let mut metrics: Vec<(String, Json)> = Vec::new();
    for w in WORKLOADS.iter().map(|w| w.name) {
        let runs: Vec<&Json> = records
            .iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w))
            .collect();
        let Some(first) = runs.first() else { continue };
        for (name, m) in first.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let xs: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            let key = if prefix {
                format!("{w}.{name}")
            } else {
                name.clone()
            };
            let unit = m.get("unit").cloned().unwrap_or(Json::Null);
            metrics.push((
                key,
                Json::obj([("value", Json::Num(median(&xs))), ("unit", unit)]),
            ));
        }
    }
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// Append this invocation's runs, with their provenance, as one more set
/// of the benchmark document at `path` (created if missing).
fn append_set(path: &str, args: &Args, records: &[Json]) -> Result<(), String> {
    let mut sets = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text)?.get("sets") {
            Some(Json::Arr(s)) => s.clone(),
            _ => return Err("existing file is not a benchmark document".into()),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.to_string()),
    };
    sets.push(Json::obj([
        ("provenance", provenance(args)),
        ("runs", Json::Arr(records.to_vec())),
    ]));
    let doc = Json::obj([("sets", Json::Arr(sets))]);
    std::fs::write(path, doc.pretty()).map_err(|e| e.to_string())
}

/// What a result must carry to be attributable: revision, toolchain,
/// machine width, seed, mode and horizons.
fn provenance(args: &Args) -> Json {
    let cmd = |prog: &str, argv: &[&str]| -> Option<String> {
        let o = Command::new(prog)
            .args(argv)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .ok()?;
        o.status
            .success()
            .then(|| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = cmd("git", &["rev-parse", "HEAD"]);
    let dirty = rev
        .as_ref()
        .and_then(|_| cmd("git", &["status", "--porcelain", "--untracked-files=no"]))
        .map_or(Json::Null, |s| Json::Bool(!s.is_empty()));
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let horizons = args.workloads.iter().map(|w| {
        (
            w.name,
            Json::obj([
                ("warmup_ms", Json::Num(w.warmup.as_nanos() as f64 / 1e6)),
                ("measure_ms", Json::Num(w.measure.as_nanos() as f64 / 1e6)),
            ]),
        )
    });
    Json::obj([
        (
            "git_rev",
            Json::str(rev.unwrap_or_else(|| "unknown".into())),
        ),
        ("git_dirty", dirty),
        ("rustc", cmd("rustc", &["-V"]).map_or(Json::Null, Json::Str)),
        ("nproc", Json::Num(nproc as f64)),
        ("seed", Json::Num(args.seed as f64)),
        (
            "mode",
            Json::str(if args.traced { "traced" } else { "untraced" }),
        ),
        ("seconds", Json::Num(args.seconds)),
        ("runs_per_workload", Json::Num(args.runs as f64)),
        ("horizons", Json::obj(horizons)),
    ])
}

/// Load `PATH` or `PATH:SET` and return its run records.
fn load(spec: &str) -> Result<Vec<Json>, String> {
    let (path, set) = match spec.rsplit_once(':') {
        Some((p, s)) if s.parse::<usize>().is_ok() => (p, s.parse().ok()),
        _ => (spec, None),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = compare::runs(&doc, set).map_err(|e| format!("{spec}: {e}"))?;
    Ok(runs.into_iter().cloned().collect())
}

fn run_compare(old: &str, new: &str) -> ExitCode {
    let (old, new) = match (load(old), load(new)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ceio-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, any_worse) = compare::compare(
        &old.iter().collect::<Vec<_>>(),
        &new.iter().collect::<Vec<_>>(),
    );
    print!("{report}");
    if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
