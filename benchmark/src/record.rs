//! One measured run of one workload: repetitions for a time budget, every
//! repetition checked, and the metrics derived from them.

use crate::json::Json;
use crate::metrics::{self, Value};
use crate::run::{self, Checked};
use crate::workloads::Workload;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-up samples per run (set-up is short; its median needs many).
const SETUPS: usize = 25;

/// Repetitions measured even when one takes longer than the budget.
const MIN_REPS: usize = 3;

/// Output digests pinned at one seed (the default).
const EXPECTED: &str = include_str!("../expected.json");

/// The digest pinned for `workload` at `seed`, if any.
pub fn expected_digest(workload: &str, seed: u64) -> Option<u64> {
    let doc = Json::parse(EXPECTED).expect("invariant: expected.json is valid JSON");
    if doc.get("seed")?.as_f64()? != seed as f64 {
        return None;
    }
    let hex = doc.get("digests")?.get(workload)?.as_str()?;
    u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()
}

/// How the reference digest compares with the pinned one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestStatus {
    /// Equal to the digest pinned for this seed.
    Ok,
    /// No digest is pinned for this seed.
    Unchecked,
    /// Differs from the pinned digest.
    Mismatch,
    /// The reference run itself failed.
    Missing,
}

impl DigestStatus {
    fn as_str(self) -> &'static str {
        match self {
            DigestStatus::Ok => "ok",
            DigestStatus::Unchecked => "unchecked",
            DigestStatus::Mismatch => "mismatch",
            DigestStatus::Missing => "missing",
        }
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub traced: bool,
    /// Simulation runs attempted (reference plus repetitions).
    pub attempted: u64,
    /// Runs that panicked, failed a check, or changed the digest.
    pub failed: u64,
    /// Digest of the reference run.
    pub digest: Option<u64>,
    /// Reference digest against the pinned one.
    pub digest_status: DigestStatus,
    /// Untraced repetitions measured.
    pub reps: usize,
    /// The run's metrics: end-to-end untraced, per-layer traced.
    pub metrics: Vec<Value>,
    /// What failed, one line per failure.
    pub failures: Vec<String>,
}

impl Record {
    /// An empty record: nothing attempted yet.
    pub fn new(w: &'static Workload, seed: u64, traced: bool) -> Record {
        Record {
            workload: w.name,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            digest: None,
            digest_status: DigestStatus::Missing,
            reps: 0,
            metrics: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Whether every run passed every check.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Run `f` as one attempted simulation run, counting a panic or a
    /// failed check as a failure. Returns the outcome unless it panicked.
    fn attempt<T>(
        &mut self,
        what: &str,
        f: impl FnOnce() -> T,
        out: impl Fn(&T) -> &Checked,
    ) -> Option<T> {
        self.attempted += 1;
        match panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => {
                let c = out(&v);
                let mut bad: Vec<String> =
                    c.failures.iter().map(|f| format!("{what}: {f}")).collect();
                if let Some(d) = self.digest {
                    if c.digest != d {
                        bad.push(format!(
                            "{what}: digest {:#018x} differs from the reference {d:#018x}",
                            c.digest
                        ));
                    }
                }
                if !bad.is_empty() {
                    self.failed += 1;
                    self.failures.extend(bad);
                }
                Some(v)
            }
            Err(e) => {
                let msg = e
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.failed += 1;
                self.failures.push(format!("{what}: panicked: {msg}"));
                None
            }
        }
    }

    /// The record as the JSON object a child prints and `--out` stores.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|v| {
            (
                v.name.clone(),
                Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(v.unit))]),
            )
        });
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            (
                "mode",
                Json::str(if self.traced { "traced" } else { "untraced" }),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "digest",
                self.digest
                    .map_or(Json::Null, |d| Json::str(format!("{d:#018x}"))),
            ),
            ("digest_status", Json::str(self.digest_status.as_str())),
            ("reps", Json::Num(self.reps as f64)),
            ("metrics", Json::obj(metrics)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Measure `w` at `seed` for `budget` of host time.
///
/// A reference run fixes the digest; then repetitions run until the
/// budget is spent (at least [`MIN_REPS`]). Untraced, each repetition is
/// a sliced, timed run. Traced, each is a pair: one untraced repetition
/// (the base of the tracing overhead) and one traced.
pub fn measure(w: &'static Workload, seed: u64, budget: Duration, traced: bool) -> Record {
    let mut rec = Record::new(w, seed, traced);
    let Some(reference) = rec.attempt("reference", || run::reference(w, seed), |c| c) else {
        return rec;
    };
    rec.digest = Some(reference.digest);
    rec.digest_status = match expected_digest(w.name, seed) {
        None => DigestStatus::Unchecked,
        Some(d) if d == reference.digest => DigestStatus::Ok,
        Some(d) => {
            rec.failed += 1;
            rec.failures.push(format!(
                "reference digest {:#018x} differs from the pinned {d:#018x}",
                reference.digest
            ));
            DigestStatus::Mismatch
        }
    };

    let setups: Vec<f64> = (0..SETUPS).map(|_| run::setup_only(w, seed)).collect();
    let mut timed = Vec::new();
    let mut traced_reps = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_REPS || start.elapsed() < budget {
        rounds += 1;
        timed.extend(rec.attempt("timed", || run::timed(w, seed), |t| &t.out));
        if traced {
            traced_reps.extend(rec.attempt("traced", || run::traced(w, seed), |t| &t.out));
        }
    }
    rec.reps = timed.len();
    rec.metrics = if traced {
        let walls: Vec<f64> = timed.iter().map(|t| t.wall_s).collect();
        metrics::per_layer(&traced_reps, &walls)
    } else {
        match peak_rss_mib() {
            Ok(rss) => metrics::end_to_end(&timed, &setups, rss),
            Err(e) => {
                rec.failed += 1;
                rec.failures.push(e);
                Vec::new()
            }
        }
    };
    rec
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{DEFAULT_SEED, WORKLOADS};

    #[test]
    fn every_workload_is_pinned_at_the_default_seed_only() {
        for w in &WORKLOADS {
            assert!(
                expected_digest(w.name, DEFAULT_SEED).is_some(),
                "{}",
                w.name
            );
            assert_eq!(
                expected_digest(w.name, DEFAULT_SEED + 1),
                None,
                "{}",
                w.name
            );
        }
    }
}
