//! The run grammar shared by the single-run CLIs (`ceio-trace`,
//! `ceio-inspect`).
//!
//! [`RunSpec::parse`] reads the flags both binaries accept — `--policy`,
//! `--scenario`, `--millis`, `--warmup-ms`, `--seed`, `--fault-plan`,
//! `--queues`, `--ddio-ways`, `--llc-model` — and hands every other flag
//! to the binary's own handler ([`parse_scope_interval`] and
//! [`parse_slos`] read `ceio-inspect`'s flight-recorder flags). It builds the
//! host configuration (the contended DPDK host with a 100 µs sample
//! window, the requested queues and a validated LLC geometry), and
//! [`RunSpec::workload`] builds the scenario and application pair.
//!
//! Every flag takes exactly one value. A missing value, an unknown name,
//! a zero duration or count, or an impossible geometry is an `Err` with a
//! one-line reason naming the flag; the binaries print it and exit 2
//! (pinned by `cli_exit_codes.rs`). Nothing is clamped or defaulted
//! silently: any positive value runs as given.

use crate::runner::PolicyKind;
use crate::workloads::{self, AppKind, Transport};
use ceio_chaos::FaultPlan;
use ceio_host::HostConfig;
use ceio_mem::LlcModelKind;
use ceio_net::Scenario;
use ceio_sim::Duration;
use ceio_telemetry::{scope, SloRule};
use std::process::ExitCode;
use std::str::FromStr;

/// The workload a single run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Eight always-on KV flows.
    Kv,
    /// Four KV and four LineFS flows.
    Mixed,
    /// The flow mix shifting every quarter of the run.
    Dynamic,
    /// Network bursts every quarter of the run.
    Burst,
}

impl ScenarioKind {
    /// The name the `--scenario` flag takes.
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Kv => "kv",
            ScenarioKind::Mixed => "mixed",
            ScenarioKind::Dynamic => "dynamic",
            ScenarioKind::Burst => "burst",
        }
    }
}

/// One parsed single-run invocation.
#[derive(Debug)]
pub struct RunSpec {
    /// Policy under test (`--policy`, default CEIO).
    pub policy: PolicyKind,
    /// Workload (`--scenario`, default `kv`).
    pub scenario: ScenarioKind,
    /// Measured span in ms (`--millis`).
    pub millis: u64,
    /// Warmup span in ms (`--warmup-ms`, default 1).
    pub warmup_ms: u64,
    /// Run seed (`--seed`, default 0). It seeds the fault plan and, when
    /// given, replaces the host RNG seed in `host.seed`.
    pub seed: u64,
    /// Armed fault plan (`--fault-plan`, seeded by `--seed`).
    pub plan: Option<FaultPlan>,
    /// The `--fault-plan` spec as given, or `none`.
    pub plan_label: String,
    /// Host configuration: contended DPDK host, 100 µs sample window,
    /// `--queues` receive queues, `--ddio-ways`/`--llc-model` geometry.
    pub host: HostConfig,
}

impl RunSpec {
    /// Parse `args`. `default_millis` is the binary's measured span when
    /// `--millis` is absent. A flag outside the shared grammar goes to
    /// `own` with its value: `Ok(true)` if the binary took it, `Ok(false)`
    /// if it is unknown there too (an error), `Err` if its value is bad.
    pub fn parse<'a>(
        args: impl IntoIterator<Item = &'a str>,
        default_millis: u64,
        mut own: impl FnMut(&str, Option<&'a str>) -> Result<bool, String>,
    ) -> Result<RunSpec, String> {
        let mut policy = PolicyKind::Ceio;
        let mut scenario = ScenarioKind::Kv;
        let mut millis = default_millis;
        let mut warmup_ms = 1;
        let mut seed = None;
        let mut plan_spec = None;
        let mut queues = 1;
        let mut ddio_ways = None;
        let mut llc_model = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next();
            match flag {
                "--policy" => policy = parse_policy(value)?,
                "--scenario" => scenario = parse_scenario(value)?,
                "--millis" => {
                    millis = parse_positive(flag, value, "a zero-length run measures nothing")?
                }
                "--warmup-ms" => {
                    warmup_ms =
                        parse_positive(flag, value, "the measurement needs a warmed-up host")?
                }
                "--seed" => seed = Some(parse_number(flag, value)?),
                "--fault-plan" => plan_spec = Some(flag_value(flag, value)?),
                "--queues" => queues = parse_queues(value)?,
                "--ddio-ways" => ddio_ways = Some(parse_ddio_ways(value)?),
                "--llc-model" => llc_model = Some(parse_llc_model(value)?),
                _ => {
                    if !own(flag, value)? {
                        return Err(format!("unknown argument {flag}"));
                    }
                }
            }
        }
        let plan = resolve_fault_plan(plan_spec, seed.unwrap_or(0))?;
        let mut host = workloads::contended_host(Transport::Dpdk);
        host.seed = seed.unwrap_or(host.seed);
        host.sample_window = Duration::micros(100);
        host.num_queues = queues;
        apply_llc_flags(&mut host, ddio_ways, llc_model)?;
        Ok(RunSpec {
            policy,
            scenario,
            millis,
            warmup_ms,
            seed: seed.unwrap_or(0),
            plan,
            plan_label: plan_spec.unwrap_or("none").to_string(),
            host,
        })
    }

    /// The scenario and application pair of `--scenario`. The phased
    /// scenarios switch every quarter of the measured span (at least 1 ms).
    pub fn workload(&self) -> (Scenario, AppKind) {
        let link = self.host.net.link_bandwidth;
        let phase = Duration::millis((self.millis / 4).max(1));
        match self.scenario {
            ScenarioKind::Kv => (workloads::involved_flows(8, 512, link), AppKind::Kv),
            ScenarioKind::Mixed => (workloads::mixed_flows(4, 4, 512, link), AppKind::Mixed),
            ScenarioKind::Dynamic => (
                workloads::dynamic_distribution(phase, 3, link),
                AppKind::Mixed,
            ),
            ScenarioKind::Burst => (workloads::network_burst(phase, 3, link), AppKind::Mixed),
        }
    }

    /// Warmup span.
    pub fn warmup(&self) -> Duration {
        Duration::millis(self.warmup_ms)
    }

    /// Measured span.
    pub fn measure(&self) -> Duration {
        Duration::millis(self.millis)
    }
}

/// The value following `flag`, or an error naming the flag.
pub fn flag_value<'a>(flag: &str, value: Option<&'a str>) -> Result<&'a str, String> {
    value.ok_or_else(|| format!("{flag} requires a value"))
}

/// A non-negative integer after `flag`.
fn parse_number(flag: &str, value: Option<&str>) -> Result<u64, String> {
    let raw = flag_value(flag, value)?;
    raw.parse()
        .map_err(|_| format!("{flag} requires a numeric value, got {raw:?}"))
}

/// A positive integer after `flag`; `zero` says why zero is refused.
pub fn parse_positive<T: FromStr + Default + PartialEq>(
    flag: &str,
    value: Option<&str>,
    zero: &str,
) -> Result<T, String> {
    let raw = flag_value(flag, value)?;
    match raw.parse::<T>() {
        Ok(v) if v != T::default() => Ok(v),
        Ok(_) => Err(format!("{flag} must be >= 1 ({zero})")),
        Err(_) => Err(format!("{flag} requires a positive integer, got {raw:?}")),
    }
}

/// `--policy`: `baseline`, `hostcc`, `shring` or `ceio`.
fn parse_policy(value: Option<&str>) -> Result<PolicyKind, String> {
    match flag_value("--policy", value)? {
        "baseline" => Ok(PolicyKind::Baseline),
        "hostcc" => Ok(PolicyKind::HostCc),
        "shring" => Ok(PolicyKind::ShRing),
        "ceio" => Ok(PolicyKind::Ceio),
        other => Err(format!(
            "--policy must be baseline|hostcc|shring|ceio, got {other:?}"
        )),
    }
}

/// `--scenario`: `kv`, `mixed`, `dynamic` or `burst`.
fn parse_scenario(value: Option<&str>) -> Result<ScenarioKind, String> {
    match flag_value("--scenario", value)? {
        "kv" => Ok(ScenarioKind::Kv),
        "mixed" => Ok(ScenarioKind::Mixed),
        "dynamic" => Ok(ScenarioKind::Dynamic),
        "burst" => Ok(ScenarioKind::Burst),
        other => Err(format!(
            "--scenario must be kv|mixed|dynamic|burst, got {other:?}"
        )),
    }
}

/// `--queues`: a positive receive-queue count.
fn parse_queues(value: Option<&str>) -> Result<usize, String> {
    parse_positive("--queues", value, "zero receive queues leaves no data path")
}

/// `--ddio-ways`: a positive DDIO way count. Geometry bounds (ways <= total
/// ways) are checked by [`apply_llc_flags`] once every flag is read.
fn parse_ddio_ways(value: Option<&str>) -> Result<u32, String> {
    parse_positive(
        "--ddio-ways",
        value,
        "a zero-way DDIO partition leaves DMA nowhere",
    )
}

/// `--llc-model`: `pool` (the default) or `setassoc`.
fn parse_llc_model(value: Option<&str>) -> Result<LlcModelKind, String> {
    match flag_value("--llc-model", value)? {
        "pool" => Ok(LlcModelKind::Pool),
        "setassoc" => Ok(LlcModelKind::SetAssoc),
        other => Err(format!(
            "--llc-model must be pool or setassoc, got {other:?}"
        )),
    }
}

/// Apply the LLC flags to the host config and re-validate the combined
/// geometry; an error when the flags describe a cache the models cannot
/// represent (e.g. more DDIO ways than total ways).
fn apply_llc_flags(
    host: &mut HostConfig,
    ddio_ways: Option<u32>,
    llc_model: Option<LlcModelKind>,
) -> Result<(), String> {
    if let Some(w) = ddio_ways {
        host.mem.ddio_ways = w;
    }
    if let Some(m) = llc_model {
        host.mem.llc_model = m;
    }
    host.validate()
        .map_err(|e| format!("--ddio-ways/--llc-model: {e}"))
}

/// `--scope-interval`: a positive sim duration (`50us`, `1ms`, bare ns).
pub fn parse_scope_interval(value: Option<&str>) -> Result<Duration, String> {
    let raw = flag_value("--scope-interval", value)?;
    match scope::parse_duration(raw) {
        Ok(d) if d > Duration::ZERO => Ok(d),
        Ok(_) => Err("--scope-interval must be positive".to_string()),
        Err(e) => Err(format!("--scope-interval {raw:?}: {e}")),
    }
}

/// `--slo`: `;`-separated SLO rules.
pub fn parse_slos(value: Option<&str>) -> Result<Vec<SloRule>, String> {
    let spec = flag_value("--slo", value)?;
    SloRule::parse_spec(spec).map_err(|e| format!("--slo {spec:?}: {e}"))
}

/// Resolve `--fault-plan` (seeded by `--seed`) into an armed plan.
fn resolve_fault_plan(spec: Option<&str>, seed: u64) -> Result<Option<FaultPlan>, String> {
    spec.map(|spec| FaultPlan::parse(spec, seed).map_err(|e| format!("--fault-plan {spec:?}: {e}")))
        .transpose()
}

/// Write an output file; the error is the one-line reason to print.
pub fn write_output(path: &str, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

/// A CLI's exit status: a parse error exits 2 and a failed run exits 1,
/// each after printing its one-line reason on stderr.
pub fn exit_status(
    spec: Result<RunSpec, String>,
    run: impl FnOnce(RunSpec) -> Result<(), String>,
) -> ExitCode {
    let (code, reason) = match spec.map(run) {
        Ok(Ok(())) => return ExitCode::SUCCESS,
        Ok(Err(reason)) => (1, reason),
        Err(reason) => (2, reason),
    };
    eprintln!("{reason}");
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunSpec, String> {
        RunSpec::parse(args.iter().copied(), 10, |_, _| Ok(false))
    }

    fn error(args: &[&str]) -> String {
        match parse(args) {
            Ok(_) => panic!("{args:?} must be rejected"),
            Err(e) => e,
        }
    }

    #[test]
    fn defaults_of_both_binaries() {
        for default_millis in [10, 3] {
            let s = RunSpec::parse([], default_millis, |_, _| Ok(false)).expect("defaults parse");
            assert_eq!(s.policy, PolicyKind::Ceio);
            assert_eq!(s.scenario, ScenarioKind::Kv);
            assert_eq!(s.millis, default_millis);
            assert_eq!(s.warmup_ms, 1);
            assert_eq!(s.seed, 0);
            assert_eq!(s.host.seed, HostConfig::default().seed);
            assert!(s.plan.is_none());
            assert_eq!(s.plan_label, "none");
            assert_eq!(s.host.num_queues, 1);
            assert_eq!(s.host.sample_window, Duration::micros(100));
            assert_eq!(s.host.ring_entries, 16384);
            assert_eq!(s.host.mem.llc_model, LlcModelKind::Pool);
        }
    }

    #[test]
    fn every_shared_flag_is_applied() {
        let s = parse(&[
            "--policy",
            "shring",
            "--scenario",
            "burst",
            "--millis",
            "1",
            "--warmup-ms",
            "2",
            "--fault-plan",
            "smoke",
            "--seed",
            "42",
            "--queues",
            "4",
            "--ddio-ways",
            "4",
            "--llc-model",
            "setassoc",
        ])
        .expect("valid flags parse");
        assert_eq!(s.policy, PolicyKind::ShRing);
        assert_eq!(s.scenario, ScenarioKind::Burst);
        assert_eq!((s.millis, s.warmup_ms, s.seed), (1, 2, 42));
        // --seed seeds the host RNG as well as the plan.
        assert_eq!(s.host.seed, 42);
        // The plan is seeded by --seed even when --seed comes after it.
        assert_eq!(
            s.plan,
            Some(FaultPlan::parse("smoke", 42).expect("canned plan"))
        );
        assert_eq!(s.plan_label, "smoke");
        assert_eq!(s.host.num_queues, 4);
        assert_eq!(s.host.mem.ddio_ways, 4);
        assert_eq!(s.host.mem.llc_model, LlcModelKind::SetAssoc);
        assert_eq!(
            (s.warmup(), s.measure()),
            (Duration::millis(2), Duration::millis(1))
        );
    }

    #[test]
    fn every_policy_and_scenario_name_parses() {
        for (name, kind) in [
            ("baseline", PolicyKind::Baseline),
            ("hostcc", PolicyKind::HostCc),
            ("shring", PolicyKind::ShRing),
            ("ceio", PolicyKind::Ceio),
        ] {
            assert_eq!(parse(&["--policy", name]).expect("policy").policy, kind);
        }
        for kind in [
            ScenarioKind::Kv,
            ScenarioKind::Mixed,
            ScenarioKind::Dynamic,
            ScenarioKind::Burst,
        ] {
            let s = parse(&["--scenario", kind.name()]).expect("scenario");
            assert_eq!(s.scenario, kind);
            let (scenario, _) = s.workload();
            assert!(
                !scenario.events.is_empty(),
                "{} starts no flow",
                kind.name()
            );
        }
    }

    #[test]
    fn every_flag_error_names_the_flag() {
        let cases: &[(&[&str], &str)] = &[
            (&["--policy"], "--policy"),
            (&["--policy", "bogus"], "--policy"),
            (&["--scenario"], "--scenario"),
            (&["--scenario", "web"], "--scenario"),
            (&["--millis"], "--millis"),
            (&["--millis", "0"], "--millis"),
            (&["--millis", "ten"], "--millis"),
            (&["--warmup-ms", "0"], "--warmup-ms"),
            (&["--seed", "x"], "--seed"),
            (&["--seed"], "--seed"),
            (&["--fault-plan"], "--fault-plan"),
            (&["--fault-plan", "not-a-plan"], "--fault-plan"),
            (&["--queues", "0"], "--queues"),
            (&["--queues", "many"], "--queues"),
            (&["--ddio-ways", "0"], "--ddio-ways"),
            (&["--ddio-ways", "13"], "--ddio-ways"),
            (&["--llc-model", "fully-assoc"], "--llc-model"),
            // The flight-recorder flags are ceio-inspect's own.
            (&["--scope-interval", "20us"], "--scope-interval"),
            (&["--slo", "alert=a,when=goodput_gbps,above=1"], "--slo"),
            (&["--no-such-flag"], "--no-such-flag"),
        ];
        for (args, flag) in cases {
            let e = error(args);
            assert!(e.contains(flag), "{args:?}: {e:?} does not name {flag}");
            assert_eq!(e.lines().count(), 1, "{args:?}: {e:?} is not one line");
        }
    }

    #[test]
    fn scope_flag_parsers_read_values_and_name_their_flag() {
        assert_eq!(parse_scope_interval(Some("20us")), Ok(Duration::micros(20)));
        let rules = parse_slos(Some(
            "alert=a,when=goodput_gbps,above=1;alert=b,when=drop_pps,above=1",
        ));
        assert_eq!(rules.map(|r| r.len()), Ok(2));
        for value in [None, Some("0ns"), Some("5xs")] {
            let e = parse_scope_interval(value).expect_err("rejected");
            assert!(
                e.contains("--scope-interval") && e.lines().count() == 1,
                "{e:?}"
            );
        }
        for value in [None, Some("alert=a,above=1")] {
            let e = parse_slos(value).expect_err("rejected");
            assert!(e.contains("--slo") && e.lines().count() == 1, "{e:?}");
        }
    }

    #[test]
    fn own_flags_reach_the_binary() {
        let mut out = None;
        let s = RunSpec::parse(["--out", "x.csv", "--millis", "2"], 10, |flag, value| {
            if flag != "--out" {
                return Ok(false);
            }
            out = Some(flag_value(flag, value)?.to_string());
            Ok(true)
        })
        .expect("own flag accepted");
        assert_eq!(s.millis, 2);
        assert_eq!(out.as_deref(), Some("x.csv"));
        let missing = RunSpec::parse(["--out"], 10, |flag, value| {
            flag_value(flag, value).map(|_| true)
        });
        assert_eq!(missing.err().as_deref(), Some("--out requires a value"));
    }

    #[test]
    fn unwritable_output_is_a_one_line_error() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out.csv");
        let e = write_output(path, "x").expect_err("a file is not a directory");
        assert!(
            e.starts_with("cannot write ") && e.lines().count() == 1,
            "{e:?}"
        );
    }
}
