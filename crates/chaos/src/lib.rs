//! Deterministic, seeded fault injection for the CEIO data path.
//!
//! The paper's correctness story (§4.1–4.2) silently assumes a lossless
//! control path: every lazy credit release arrives, every DMA completes,
//! and on-NIC DRAM never fills mid-drain. This crate supplies the
//! adversary that breaks those assumptions *reproducibly*: a [`FaultPlan`]
//! names injection sites and per-site probabilities, and every component
//! that wants to misbehave forks a [`FaultInjector`] keyed by a stable tag.
//! Two runs with the same plan (and the same machine seed) inject the
//! exact same faults at the exact same points — chaos schedules are replay
//! artifacts, not noise.
//!
//! Nothing in this crate touches the data path by itself. The consuming
//! crates (`ceio-pcie`, `ceio-nic`, `ceio-host`, `ceio-core`) hold an
//! boxed `Option<FaultInjector>` that is `None` until a plan is armed at
//! runtime, so an unarmed run carries one null pointer per component and
//! costs one pointer-width test per hook — the same contract as the
//! trace recorders.

use ceio_sim::{Duration, Rng};
use std::fmt;

/// A named point on the NIC→LLC path where a fault can be injected.
///
/// Each site maps to one failure mode from the issue's fault model; the
/// per-site probability in a [`FaultPlan`] is evaluated independently at
/// every traversal of the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A lazy credit-release message is lost in flight: the release never
    /// reaches the `CreditManager` (recovered by lease expiry).
    ///
    /// recovery: ceio_credit_lease_reclaims_total
    CreditReleaseLoss,
    /// A lazy credit-release message is delayed by the plan's
    /// `release_delay` before it lands.
    ///
    /// recovery: ceio_credit_stale_releases_total
    CreditReleaseDelay,
    /// A posted DMA write fails at issue (link-level fault; retried with
    /// backoff by the host machine).
    ///
    /// recovery: ceio_recovery_dma_write_retries_total
    DmaWriteFault,
    /// A posted DMA write times out: the issue is accepted but reported
    /// failed after the timeout window.
    ///
    /// recovery: ceio_recovery_dma_backoff_ns_total
    DmaWriteTimeout,
    /// A non-posted DMA read request fails at issue.
    ///
    /// recovery: ceio_recovery_dma_read_retries_total
    DmaReadFault,
    /// A non-posted DMA read request times out.
    ///
    /// recovery: ceio_recovery_dma_backoff_ns_total
    DmaReadTimeout,
    /// On-NIC DRAM rejects a store as if the elastic region were full
    /// (exhaustion mid-drain; triggers degraded mode).
    ///
    /// recovery: ceio_ctl_degraded_entries_total
    OnboardExhaust,
    /// The NIC ARM core stalls for the plan's `arm_stall` before running
    /// the scheduled work.
    ///
    /// recovery: ceio_chaos_arm_injected_stall_ns_total
    ArmStall,
    /// An RMT steering-rule install is delayed by the plan's `rmt_delay`
    /// (the rewrite stays in flight; packets keep taking the old rule).
    ///
    /// recovery: ceio_arm_busy_ns_total
    RmtInstallDelay,
    /// The host consumer pauses for the plan's `consumer_pause` before
    /// its next poll (models an application hiccup / scheduler preemption).
    ///
    /// recovery: ceio_recovery_consumer_pauses_total
    ConsumerPause,
    /// A receive queue wedges for the plan's `queue_stall` (descriptor
    /// pipeline hiccup; the watchdog marks it Suspect and, if it recovers
    /// in time, records a false alarm instead of failing it over).
    ///
    /// recovery: ceio_failover_false_alarms_total
    QueueStall,
    /// A receive queue dies for the plan's `queue_death`: long enough that
    /// the watchdog fails it over (flows re-steered, credits quarantined)
    /// and later walks it back to `Healthy`.
    ///
    /// recovery: ceio_failover_recoveries_total
    QueueDeath,
    /// A link-level flap wedges *every* receive queue for the plan's
    /// `link_flap` — a correlated burst the per-queue watchdogs must not
    /// misread as independent queue deaths.
    ///
    /// recovery: ceio_failover_suspects_total
    LinkFlap,
}

impl FaultSite {
    /// Number of distinct sites (array-index domain).
    pub const COUNT: usize = 13;

    /// Every site, in stable declaration order.
    pub const ALL: [FaultSite; FaultSite::COUNT] = [
        FaultSite::CreditReleaseLoss,
        FaultSite::CreditReleaseDelay,
        FaultSite::DmaWriteFault,
        FaultSite::DmaWriteTimeout,
        FaultSite::DmaReadFault,
        FaultSite::DmaReadTimeout,
        FaultSite::OnboardExhaust,
        FaultSite::ArmStall,
        FaultSite::RmtInstallDelay,
        FaultSite::ConsumerPause,
        FaultSite::QueueStall,
        FaultSite::QueueDeath,
        FaultSite::LinkFlap,
    ];

    /// Stable dense index (for counter arrays).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FaultSite::CreditReleaseLoss => 0,
            FaultSite::CreditReleaseDelay => 1,
            FaultSite::DmaWriteFault => 2,
            FaultSite::DmaWriteTimeout => 3,
            FaultSite::DmaReadFault => 4,
            FaultSite::DmaReadTimeout => 5,
            FaultSite::OnboardExhaust => 6,
            FaultSite::ArmStall => 7,
            FaultSite::RmtInstallDelay => 8,
            FaultSite::ConsumerPause => 9,
            FaultSite::QueueStall => 10,
            FaultSite::QueueDeath => 11,
            FaultSite::LinkFlap => 12,
        }
    }

    /// Stable kebab-case name, as used in fault-plan specs and telemetry
    /// labels.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CreditReleaseLoss => "credit-release-loss",
            FaultSite::CreditReleaseDelay => "credit-release-delay",
            FaultSite::DmaWriteFault => "dma-write-fault",
            FaultSite::DmaWriteTimeout => "dma-write-timeout",
            FaultSite::DmaReadFault => "dma-read-fault",
            FaultSite::DmaReadTimeout => "dma-read-timeout",
            FaultSite::OnboardExhaust => "onboard-exhaust",
            FaultSite::ArmStall => "arm-stall",
            FaultSite::RmtInstallDelay => "rmt-install-delay",
            FaultSite::ConsumerPause => "consumer-pause",
            FaultSite::QueueStall => "queue-stall",
            FaultSite::QueueDeath => "queue-death",
            FaultSite::LinkFlap => "link-flap",
        }
    }

    /// Parse a kebab-case site name.
    pub fn from_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.iter().copied().find(|s| s.name() == name)
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete, self-describing fault schedule: per-site probabilities plus
/// the duration knobs the delayed/stalled sites need.
///
/// The plan itself is pure data; determinism comes from
/// [`FaultPlan::injector`], which derives an independent [`Rng`] stream
/// per component tag, so the fault sequence seen by (say) the DMA engine
/// does not depend on how often the RMT fires.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all injector streams (combined with each component tag).
    pub seed: u64,
    /// Per-site injection probability in `[0, 1]`, indexed by
    /// [`FaultSite::index`].
    pub rates: [f64; FaultSite::COUNT],
    /// How long a delayed credit release is held back.
    pub release_delay: Duration,
    /// How long an ARM-core stall lasts.
    pub arm_stall: Duration,
    /// How long a delayed RMT rule install stays in flight.
    pub rmt_delay: Duration,
    /// How long a paused host consumer sleeps.
    pub consumer_pause: Duration,
    /// Extra latency charged to a timed-out DMA transaction before the
    /// failure is reported.
    pub dma_timeout: Duration,
    /// How long an injected queue stall wedges one receive queue (short
    /// of the watchdog's failure threshold under default settings).
    pub queue_stall: Duration,
    /// How long an injected queue death wedges one receive queue (long
    /// enough to cross the watchdog's failure threshold).
    pub queue_death: Duration,
    /// How long an injected link flap wedges every receive queue.
    pub link_flap: Duration,
    /// Credit-lease time-to-live armed alongside this plan. `None` keeps
    /// leases disabled (lost releases then strand credits — useful for
    /// demonstrating *why* leases exist).
    pub lease_ttl: Option<Duration>,
}

impl FaultPlan {
    /// An empty plan: no sites armed, default duration knobs, leases on
    /// with a conservative TTL.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; FaultSite::COUNT],
            release_delay: Duration::micros(5),
            arm_stall: Duration::micros(2),
            rmt_delay: Duration::micros(3),
            consumer_pause: Duration::micros(10),
            dma_timeout: Duration::micros(1),
            queue_stall: Duration::micros(8),
            queue_death: Duration::micros(120),
            link_flap: Duration::micros(8),
            lease_ttl: Some(Duration::micros(200)),
        }
    }

    /// Builder: set one site's injection probability (clamped to `[0,1]`).
    #[must_use]
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> FaultPlan {
        self.rates[site.index()] = rate.clamp(0.0, 1.0);
        self
    }

    /// Builder: set the lease TTL (`None` disables leases).
    #[must_use]
    pub fn with_lease_ttl(mut self, ttl: Option<Duration>) -> FaultPlan {
        self.lease_ttl = ttl;
        self
    }

    /// The injection probability for a site.
    #[inline]
    pub fn rate(&self, site: FaultSite) -> f64 {
        self.rates[site.index()]
    }

    /// Whether any site is armed.
    pub fn any_armed(&self) -> bool {
        self.rates.iter().any(|&r| r > 0.0)
    }

    /// Names of the canned plans accepted by [`FaultPlan::parse`].
    pub const CANNED: [&'static str; 5] = [
        "smoke",
        "credit-storm",
        "dma-flaky",
        "nic-pressure",
        "queue-flap",
    ];

    /// A canned, named plan (used by the CI chaos-smoke lane and as quick
    /// CLI shorthand). Returns `None` for unknown names.
    pub fn canned(name: &str, seed: u64) -> Option<FaultPlan> {
        let p = FaultPlan::new(seed);
        Some(match name {
            // A little of everything: exercises every recovery path while
            // still letting most traffic through.
            "smoke" => p
                .with_rate(FaultSite::CreditReleaseLoss, 0.05)
                .with_rate(FaultSite::CreditReleaseDelay, 0.05)
                .with_rate(FaultSite::DmaWriteFault, 0.02)
                .with_rate(FaultSite::DmaWriteTimeout, 0.01)
                .with_rate(FaultSite::DmaReadFault, 0.02)
                .with_rate(FaultSite::DmaReadTimeout, 0.01)
                .with_rate(FaultSite::OnboardExhaust, 0.02)
                .with_rate(FaultSite::ArmStall, 0.01)
                .with_rate(FaultSite::RmtInstallDelay, 0.05)
                .with_rate(FaultSite::ConsumerPause, 0.005),
            // Heavy control-plane loss: the lease watchdog carries the run.
            "credit-storm" => p
                .with_rate(FaultSite::CreditReleaseLoss, 0.25)
                .with_rate(FaultSite::CreditReleaseDelay, 0.25),
            // Flaky PCIe link: retry/backoff machinery under sustained load.
            "dma-flaky" => p
                .with_rate(FaultSite::DmaWriteFault, 0.10)
                .with_rate(FaultSite::DmaWriteTimeout, 0.05)
                .with_rate(FaultSite::DmaReadFault, 0.10)
                .with_rate(FaultSite::DmaReadTimeout, 0.05),
            // On-NIC memory pressure: degraded-mode entry/exit hysteresis.
            "nic-pressure" => p
                .with_rate(FaultSite::OnboardExhaust, 0.30)
                .with_rate(FaultSite::ArmStall, 0.05)
                .with_rate(FaultSite::RmtInstallDelay, 0.10),
            // Queue failure domains: stalls trip the watchdog's Suspect
            // state, deaths cross the failover threshold, and rare link
            // flaps wedge every queue at once. Rates are evaluated once
            // per queue per watchdog tick, not per packet.
            "queue-flap" => p
                .with_rate(FaultSite::QueueStall, 0.04)
                .with_rate(FaultSite::QueueDeath, 0.02)
                .with_rate(FaultSite::LinkFlap, 0.005),
            _ => return None,
        })
    }

    /// Parse a plan spec.
    ///
    /// Accepted forms:
    /// - a canned name (`smoke`, `credit-storm`, `dma-flaky`,
    ///   `nic-pressure`);
    /// - a comma-separated list of `key=value` tokens, where `key` is a
    ///   [`FaultSite`] name with a probability value in `[0,1]`, or one of
    ///   the duration knobs `release-delay` / `arm-stall` / `rmt-delay` /
    ///   `consumer-pause` / `dma-timeout` / `queue-stall` / `queue-death` /
    ///   `link-flap` / `lease-ttl` with a value like `500ns`, `20us`, `1ms`
    ///   (`lease-ttl=off` disables leases). For the keys that name both a
    ///   site and a knob (`arm-stall`, `consumer-pause`, `queue-stall`,
    ///   `queue-death`, `link-flap`), a bare number is the injection
    ///   probability and a unit-suffixed duration is the knob.
    ///
    /// Errors carry a human-readable reason (the CLIs exit 2 with it).
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("empty fault-plan spec".to_string());
        }
        if let Some(p) = FaultPlan::canned(spec, seed) {
            return Ok(p);
        }
        let mut plan = FaultPlan::new(seed);
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("malformed fault-plan token {token:?} (want key=value)"))?;
            let (key, value) = (key.trim(), value.trim());
            // Several keys (`arm-stall`, `consumer-pause`, the queue
            // sites) name both a fault site and its duration knob: a bare
            // probability sets the rate, a suffixed duration (`10us`)
            // sets the knob.
            let duration_knob = matches!(
                key,
                "arm-stall" | "consumer-pause" | "queue-stall" | "queue-death" | "link-flap"
            ) && value.parse::<f64>().is_err();
            if let Some(site) = (!duration_knob)
                .then(|| FaultSite::from_name(key))
                .flatten()
            {
                let rate: f64 = value
                    .parse()
                    .map_err(|_| format!("bad probability {value:?} for site {key}"))?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("probability {value} for site {key} not in [0,1]"));
                }
                plan.rates[site.index()] = rate;
            } else {
                match key {
                    "release-delay" => plan.release_delay = parse_duration(value)?,
                    "arm-stall" => plan.arm_stall = parse_duration(value)?,
                    "rmt-delay" => plan.rmt_delay = parse_duration(value)?,
                    "consumer-pause" => plan.consumer_pause = parse_duration(value)?,
                    "dma-timeout" => plan.dma_timeout = parse_duration(value)?,
                    "queue-stall" => plan.queue_stall = parse_duration(value)?,
                    "queue-death" => plan.queue_death = parse_duration(value)?,
                    "link-flap" => plan.link_flap = parse_duration(value)?,
                    "lease-ttl" => {
                        plan.lease_ttl = if value == "off" {
                            None
                        } else {
                            Some(parse_duration(value)?)
                        }
                    }
                    _ => {
                        return Err(format!(
                            "unknown fault-plan key {key:?} (sites: {}; knobs: release-delay, \
                             arm-stall, rmt-delay, consumer-pause, dma-timeout, queue-stall, \
                             queue-death, link-flap, lease-ttl; canned: {})",
                            FaultSite::ALL.map(FaultSite::name).join(", "),
                            FaultPlan::CANNED.join(", "),
                        ))
                    }
                }
            }
        }
        Ok(plan)
    }

    /// Derive the deterministic injector for one component.
    ///
    /// The tag ("dma", "policy", "onboard", …) is folded into the seed via
    /// FNV-1a, so each component draws from an independent stream: adding
    /// or removing traversals in one component never perturbs another's
    /// fault sequence.
    pub fn injector(&self, tag: &str) -> FaultInjector {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tag.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        FaultInjector {
            rng: Rng::seed_from_u64(self.seed ^ h),
            plan: self.clone(),
            stats: ChaosStats::default(),
        }
    }
}

/// Parse `123ns` / `45us` / `6ms` / plain nanoseconds.
fn parse_duration(s: &str) -> Result<Duration, String> {
    let (digits, mult) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else {
        (s, 1)
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad duration {s:?} (want e.g. 500ns, 20us, 1ms)"))?;
    Ok(Duration::nanos(n.saturating_mul(mult)))
}

/// Per-site injection counters, kept by every [`FaultInjector`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Faults actually fired, indexed by [`FaultSite::index`].
    pub injected: [u64; FaultSite::COUNT],
}

impl ChaosStats {
    /// Faults fired at one site.
    #[inline]
    pub fn at(&self, site: FaultSite) -> u64 {
        self.injected[site.index()]
    }

    /// Total faults fired across all sites.
    pub fn total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// Merge another component's counters into this one.
    pub fn absorb(&mut self, other: &ChaosStats) {
        for (a, b) in self.injected.iter_mut().zip(other.injected.iter()) {
            *a += b;
        }
    }
}

/// A per-component fault stream: deterministic Bernoulli draws against the
/// plan's per-site rates, with injection counters.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: Rng,
    plan: FaultPlan,
    stats: ChaosStats,
}

impl FaultInjector {
    /// Evaluate one traversal of `site`: `true` means the fault fires
    /// (and is counted). Sites with rate 0 never draw from the stream, so
    /// arming new sites does not shift the schedule of already-armed ones
    /// *within a component* only when rates stay fixed; across components
    /// streams are always independent.
    #[inline]
    pub fn fire(&mut self, site: FaultSite) -> bool {
        let rate = self.plan.rates[site.index()];
        if rate <= 0.0 {
            return false;
        }
        let hit = self.rng.gen_bool(rate);
        if hit {
            self.stats.injected[site.index()] += 1;
        }
        hit
    }

    /// Uniform jitter in `[0, bound)` nanoseconds from this component's
    /// stream (used by retry backoff so concurrent retries desynchronize).
    #[inline]
    pub fn jitter(&mut self, bound: Duration) -> Duration {
        Duration::nanos(self.rng.gen_range(bound.as_nanos()))
    }

    /// The plan this injector was derived from.
    #[inline]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Injection counters so far.
    #[inline]
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::from_name(site.name()), Some(site));
            assert_eq!(site.to_string(), site.name());
        }
        assert_eq!(FaultSite::from_name("bogus"), None);
    }

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, site) in FaultSite::ALL.iter().enumerate() {
            assert_eq!(site.index(), i);
        }
    }

    #[test]
    fn parse_canned_and_spec() {
        let p = FaultPlan::parse("smoke", 7).expect("canned");
        assert!(p.any_armed());
        let q = FaultPlan::parse(
            "credit-release-loss=0.5, dma-read-fault=1.0, lease-ttl=100us, rmt-delay=250ns",
            7,
        )
        .expect("spec");
        assert_eq!(q.rate(FaultSite::CreditReleaseLoss), 0.5);
        assert_eq!(q.rate(FaultSite::DmaReadFault), 1.0);
        assert_eq!(q.rate(FaultSite::DmaWriteFault), 0.0);
        assert_eq!(q.lease_ttl, Some(Duration::micros(100)));
        assert_eq!(q.rmt_delay, Duration::nanos(250));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(FaultPlan::parse("", 0).is_err());
        assert!(FaultPlan::parse("nonsense", 0).is_err());
        assert!(FaultPlan::parse("credit-release-loss", 0).is_err());
        assert!(FaultPlan::parse("credit-release-loss=1.5", 0).is_err());
        assert!(FaultPlan::parse("credit-release-loss=x", 0).is_err());
        assert!(FaultPlan::parse("lease-ttl=5parsecs", 0).is_err());
        assert!(FaultPlan::parse("unknown-site=0.5", 0).is_err());
    }

    #[test]
    fn lease_ttl_off() {
        let p = FaultPlan::parse("lease-ttl=off", 0).expect("spec");
        assert_eq!(p.lease_ttl, None);
    }

    #[test]
    fn site_knob_homonyms_disambiguate_by_value_shape() {
        // `consumer-pause` / `arm-stall` name both a site (probability)
        // and a duration knob: a bare number is the rate, a suffixed
        // duration the knob.
        let p = FaultPlan::parse("consumer-pause=0.25, arm-stall=0.5", 0).expect("rates");
        assert_eq!(p.rate(FaultSite::ConsumerPause), 0.25);
        assert_eq!(p.rate(FaultSite::ArmStall), 0.5);
        let q = FaultPlan::parse("consumer-pause=10us, arm-stall=250ns", 0).expect("knobs");
        assert_eq!(q.consumer_pause, Duration::micros(10));
        assert_eq!(q.arm_stall, Duration::nanos(250));
        assert_eq!(q.rate(FaultSite::ConsumerPause), 0.0);
        // Still malformed when neither shape fits.
        assert!(FaultPlan::parse("consumer-pause=fast", 0).is_err());
        assert!(FaultPlan::parse("arm-stall=1.5", 0).is_err());
    }

    #[test]
    fn queue_site_homonyms_disambiguate_by_value_shape() {
        let p =
            FaultPlan::parse("queue-stall=0.1, queue-death=0.05, link-flap=1.0", 0).expect("rates");
        assert_eq!(p.rate(FaultSite::QueueStall), 0.1);
        assert_eq!(p.rate(FaultSite::QueueDeath), 0.05);
        assert_eq!(p.rate(FaultSite::LinkFlap), 1.0);
        let q = FaultPlan::parse("queue-stall=5us, queue-death=300us, link-flap=20us", 0)
            .expect("knobs");
        assert_eq!(q.queue_stall, Duration::micros(5));
        assert_eq!(q.queue_death, Duration::micros(300));
        assert_eq!(q.link_flap, Duration::micros(20));
        assert_eq!(q.rate(FaultSite::QueueDeath), 0.0);
        assert!(FaultPlan::parse("queue-death=dead", 0).is_err());
        assert!(FaultPlan::parse("link-flap=7.0", 0).is_err());
    }

    #[test]
    fn queue_flap_plan_arms_only_queue_sites() {
        let p = FaultPlan::canned("queue-flap", 9).expect("canned");
        assert!(p.rate(FaultSite::QueueStall) > 0.0);
        assert!(p.rate(FaultSite::QueueDeath) > 0.0);
        assert!(p.rate(FaultSite::LinkFlap) > 0.0);
        // Every non-queue site stays disarmed: a queue-flap run's DMA and
        // credit schedules are byte-identical to a fault-free run's.
        for site in FaultSite::ALL {
            if !matches!(
                site,
                FaultSite::QueueStall | FaultSite::QueueDeath | FaultSite::LinkFlap
            ) {
                assert_eq!(p.rate(site), 0.0, "{site} must stay disarmed");
            }
        }
    }

    #[test]
    fn every_canned_name_resolves() {
        for name in FaultPlan::CANNED {
            assert!(FaultPlan::canned(name, 1).is_some(), "{name}");
            assert!(FaultPlan::parse(name, 1).is_ok(), "{name}");
        }
        assert!(FaultPlan::canned("not-a-plan", 1).is_none());
    }

    #[test]
    fn injector_streams_are_deterministic_and_independent() {
        let plan = FaultPlan::new(42).with_rate(FaultSite::DmaWriteFault, 0.5);
        let draws = |tag: &str| -> Vec<bool> {
            let mut inj = plan.injector(tag);
            (0..64)
                .map(|_| inj.fire(FaultSite::DmaWriteFault))
                .collect()
        };
        assert_eq!(draws("dma"), draws("dma"), "same tag ⇒ same schedule");
        assert_ne!(draws("dma"), draws("policy"), "tags decorrelate streams");
        let mut inj = plan.injector("dma");
        for _ in 0..64 {
            inj.fire(FaultSite::DmaWriteFault);
        }
        let fired = inj.stats().at(FaultSite::DmaWriteFault);
        assert!(fired > 0 && fired < 64, "rate 0.5 fires sometimes: {fired}");
        assert_eq!(inj.stats().total(), fired);
    }

    #[test]
    fn zero_rate_site_never_draws_or_fires() {
        let plan = FaultPlan::new(1);
        let mut inj = plan.injector("x");
        for site in FaultSite::ALL {
            for _ in 0..32 {
                assert!(!inj.fire(site));
            }
        }
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn stats_absorb_sums() {
        let mut a = ChaosStats::default();
        let mut b = ChaosStats::default();
        a.injected[0] = 3;
        b.injected[0] = 4;
        b.injected[9] = 1;
        a.absorb(&b);
        assert_eq!(a.at(FaultSite::CreditReleaseLoss), 7);
        assert_eq!(a.at(FaultSite::ConsumerPause), 1);
        assert_eq!(a.total(), 8);
    }
}
