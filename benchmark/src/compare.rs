//! `--compare OLD NEW`: per workload and end-to-end metric, the medians
//! and quartiles of both sides with a verdict, plus per-layer deltas for
//! attribution.
//!
//! Verdict rules:
//! * **unresolved** — either side's quartile spread, as a share of its
//!   median, exceeds the metric's bound, unless every NEW run beats every
//!   OLD run (then **better**);
//! * **worse** — NEW's median is worse than OLD's by more than the bound;
//! * **better** — NEW wins at least nine tenths of the run pairs and the
//!   medians differ by more than OLD's quartile spread;
//! * **same** — otherwise.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::run::{KINDS, REPORTED_KINDS};
use std::fmt::Write as _;

/// A comparison verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved beyond noise.
    Better,
    /// Within the bound.
    Same,
    /// Worse by more than the bound.
    Worse,
    /// Spread wider than the bound: no claim either way.
    Unresolved,
}

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) gives them.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Decide a verdict for one metric from paired run values.
pub fn verdict(old: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let (oq1, omed, oq3) = quartiles(old);
    let (nq1, nmed, nq3) = quartiles(new);
    // Signed improvement of `b` over `a`: positive when `b` is better.
    let gain = |a: f64, b: f64| match better {
        Better::Lower => a - b,
        Better::Higher => b - a,
    };
    let all_better = old.iter().all(|&o| new.iter().all(|&n| gain(o, n) > 0.0));
    let spread = |q1: f64, q3: f64, med: f64| (q3 - q1) / med.abs().max(f64::MIN_POSITIVE);
    if spread(oq1, oq3, omed) > bound || spread(nq1, nq3, nmed) > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if -gain(omed, nmed) > bound * omed.abs() {
        return Verdict::Worse;
    }
    let pairs = old.len().min(new.len());
    let wins = old
        .iter()
        .zip(new)
        .filter(|(&o, &n)| gain(o, n) > 0.0)
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && gain(omed, nmed) > oq3 - oq1 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The run records of one benchmark document: every set, or only set
/// `set` when given.
pub fn runs(doc: &Json, set: Option<usize>) -> Result<Vec<&Json>, String> {
    let sets = doc
        .get("sets")
        .and_then(Json::as_arr)
        .ok_or("not a benchmark document (no \"sets\" array)")?;
    let chosen: Vec<&Json> = match set {
        None => sets.iter().collect(),
        Some(i) => vec![sets
            .get(i)
            .ok_or_else(|| format!("set {i} out of range (the document has {})", sets.len()))?],
    };
    Ok(chosen
        .into_iter()
        .filter_map(|s| s.get("runs").and_then(Json::as_arr))
        .flatten()
        .collect())
}

/// Values of `metric` over the `mode` runs of `workload`, in run order.
fn values(runs: &[&Json], workload: &str, mode: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("mode").and_then(Json::as_str) == Some(mode)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Workload names in first-seen order.
fn workloads(runs: &[&Json]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for r in runs {
        if let Some(w) = r.get("workload").and_then(Json::as_str) {
            if !out.iter().any(|x| x == w) {
                out.push(w.to_string());
            }
        }
    }
    out
}

/// `x` with five significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 {
        0
    } else {
        (4 - x.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{x:.digits$}")
}

/// Render the comparison; the flag is true when any verdict is worse.
pub fn compare(old: &[&Json], new: &[&Json]) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        out,
        "{:<18} {:<13} {:>40} {:>40} {:>8} {:>6}  verdict",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "delta", "bound"
    );
    for w in workloads(old) {
        for m in END_TO_END {
            let (o, n) = (
                values(old, &w, "untraced", m.name),
                values(new, &w, "untraced", m.name),
            );
            if o.is_empty() || n.is_empty() {
                continue;
            }
            let v = verdict(&o, &n, m.better, m.bound);
            any_worse |= v == Verdict::Worse;
            let (oq1, omed, oq3) = quartiles(&o);
            let (nq1, nmed, nq3) = quartiles(&n);
            let _ = writeln!(
                out,
                "{w:<18} {:<13} {:>40} {:>40} {:>+7.1}% {:>5.0}%  {v:?} (n={}/{})",
                m.name,
                format!("{} [{}, {}]", sig(omed), sig(oq1), sig(oq3)),
                format!("{} [{}, {}]", sig(nmed), sig(nq1), sig(nq3)),
                (nmed - omed) / omed * 100.0,
                m.bound * 100.0,
                o.len(),
                n.len(),
            );
        }
    }
    let mut layer_metrics: Vec<String> = KINDS[..REPORTED_KINDS]
        .iter()
        .flat_map(|(_, l)| [format!("{l}.self_ms"), format!("{l}.ns_per_event")])
        .collect();
    layer_metrics.extend([
        "sim.engine_self_ms".into(),
        "sim.engine_ns_per_event".into(),
    ]);
    let mut header = "\nper-layer attribution (traced runs, medians):\n";
    for w in workloads(old) {
        for m in &layer_metrics {
            let (o, n) = (values(old, &w, "traced", m), values(new, &w, "traced", m));
            if o.is_empty() || n.is_empty() {
                continue;
            }
            let (_, omed, _) = quartiles(&o);
            let (_, nmed, _) = quartiles(&n);
            let delta = if omed == 0.0 {
                String::from("-")
            } else {
                format!("{:+.1}%", (nmed - omed) / omed * 100.0)
            };
            out.push_str(std::mem::take(&mut header));
            let _ = writeln!(
                out,
                "{w:<18} {m:<34} {omed:>14.4} -> {nmed:>14.4} {delta:>8}"
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let old = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0];
        let slower: Vec<f64> = old.iter().map(|x| x * 1.2).collect();
        let faster: Vec<f64> = old.iter().map(|x| x * 0.9).collect();
        let noisy = [5.0, 15.0, 10.0, 2.0, 20.0, 10.0, 8.0, 12.0, 10.0, 10.0];
        assert_eq!(verdict(&old, &old, Better::Lower, 0.1), Verdict::Same);
        assert_eq!(verdict(&old, &slower, Better::Lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&old, &faster, Better::Lower, 0.1), Verdict::Better);
        assert_eq!(
            verdict(&old, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&old, &slower, Better::Higher, 0.1), Verdict::Better);
    }
}
