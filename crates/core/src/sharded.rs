//! Hierarchical credit ledger for the multi-queue receive path.
//!
//! The single-queue pipeline runs one [`CreditManager`] sized by Eq. 1.
//! With N receive queues the DDIO budget is *partitioned*: each queue owns
//! a [`CreditManager`] seeded with its fair share of `C_total`, and a
//! **global free pool** holds slack in transit between partitions. Flows
//! are routed to partitions by the same RSS hash that shards them onto
//! receive queues ([`rss_queue`]), so a queue's admission decisions touch
//! only its own partition — the contention-free property that makes the
//! sharding worthwhile.
//!
//! Conservation becomes a two-level invariant:
//!
//! ```text
//! per partition q:  assigned_q + pool_q + outstanding_q == total_q   (Eq. 1)
//! globally:         Σ_q total_q + global_free == C_total
//! ```
//!
//! Slack migrates only through the conservation-preserving primitives
//! [`CreditManager::withdraw_pool`] (partition → global, free credits
//! only) and [`CreditManager::inject_pool`] (global → partition), so both
//! levels hold after every operation; [`ShardedCredits::conserved`] checks
//! them together and the audit layer asserts it after every event.
//!
//! With `num_queues == 1` the wrapper degenerates to a single partition
//! that owns the whole budget and a permanently empty global pool: every
//! operation forwards verbatim to the inner manager, keeping the
//! single-queue pipeline bit-identical to the pre-sharding model.

use crate::credit::{CreditManager, CreditStats};
use ceio_net::FlowId;
use ceio_nic::rss_queue;
use ceio_sim::{Duration, Time};
use ceio_telemetry::{merge_events, TraceEvent};

/// The hierarchical (global pool + per-queue partitions) credit ledger.
#[derive(Debug, Clone)]
pub struct ShardedCredits {
    /// One Algorithm 1 ledger per receive queue.
    parts: Vec<CreditManager>,
    /// Slack in transit between partitions (always 0 when `parts.len() == 1`).
    global_free: u64,
    /// The grand total, `C_total` (Eq. 1 across the whole hierarchy).
    configured_total: u64,
    /// Each partition's fair share of `C_total` — the set point
    /// `rebalance` steers totals back toward.
    base: Vec<u64>,
    /// Per-partition denial count observed at the previous rebalance, so
    /// pressure detection is a delta, not an absolute.
    denied_at_last: Vec<u64>,
    /// Partitions whose receive queue failed over: their free credits
    /// drain to the global pool and they neither borrow nor receive
    /// granted slack until restored.
    quarantined: Vec<bool>,
}

impl ShardedCredits {
    /// A hierarchy of `num_queues` partitions splitting `total` credits.
    ///
    /// The integer remainder of the split goes to partition 0 so the grand
    /// total is exact from the start (`global_free` begins at 0).
    pub fn new(total: u64, num_queues: usize) -> ShardedCredits {
        let n = num_queues.max(1);
        let per = total / n as u64;
        let rem = total % n as u64;
        let mut parts = Vec::with_capacity(n);
        let mut base = Vec::with_capacity(n);
        for q in 0..n {
            let share = per + if q == 0 { rem } else { 0 };
            parts.push(CreditManager::new(share));
            base.push(share);
        }
        ShardedCredits {
            parts,
            global_free: 0,
            configured_total: total,
            base,
            denied_at_last: vec![0; n],
            quarantined: vec![false; n],
        }
    }

    /// Partition index for a flow — the same RSS shard that routes its
    /// packets to a receive queue.
    #[inline]
    #[must_use]
    pub fn partition_of(&self, f: FlowId) -> usize {
        rss_queue(f.0, self.parts.len()).index()
    }

    /// Number of partitions (== receive queues).
    #[inline]
    #[must_use]
    pub fn num_queues(&self) -> usize {
        self.parts.len()
    }

    /// Read-only view of one partition's ledger (for telemetry and tests).
    #[must_use]
    pub fn partition(&self, q: usize) -> Option<&CreditManager> {
        self.parts.get(q)
    }

    /// Credits currently parked in the global pool.
    #[inline]
    #[must_use]
    pub fn global_free(&self) -> u64 {
        self.global_free
    }

    /// The configured grand total, `C_total`.
    #[inline]
    #[must_use]
    pub fn total(&self) -> u64 {
        self.configured_total
    }

    /// Credits held by in-flight packets, across all partitions.
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.parts.iter().map(|p| p.outstanding()).sum()
    }

    /// Free credits across all partition pools plus the global pool.
    #[must_use]
    pub fn free_pool(&self) -> u64 {
        self.parts.iter().map(|p| p.free_pool()).sum::<u64>() + self.global_free
    }

    /// Credits currently assigned to flows, across all partitions.
    #[must_use]
    pub fn assigned_total(&self) -> u64 {
        self.parts.iter().map(|p| p.assigned_total()).sum()
    }

    /// Managed flows across all partitions.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.parts.iter().map(|p| p.flow_count()).sum()
    }

    /// Current credits of a flow (0 if unknown).
    #[must_use]
    pub fn credits(&self, f: FlowId) -> u64 {
        self.parts[self.partition_of(f)].credits(f)
    }

    /// Whether a flow is in its partition's insufficient set `I`.
    #[must_use]
    pub fn in_insufficient(&self, f: FlowId) -> bool {
        self.parts[self.partition_of(f)].in_insufficient(f)
    }

    /// Total debt a flow owes within its partition.
    #[must_use]
    pub fn debt_of(&self, f: FlowId) -> u64 {
        self.parts[self.partition_of(f)].debt_of(f)
    }

    /// Two-level conservation: Eq. 1 inside every partition, and the
    /// partition totals plus the global pool summing to `C_total`.
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.parts.iter().all(|p| p.conserved())
            && self.parts.iter().map(|p| p.total()).sum::<u64>() + self.global_free
                == self.configured_total
    }

    /// Aggregated statistics across all partitions (owned: the per-field
    /// sums are computed on demand).
    #[must_use]
    pub fn stats(&self) -> CreditStats {
        let mut out = CreditStats::default();
        for p in self.parts.iter() {
            let s = p.stats();
            out.consumed += s.consumed;
            out.denied += s.denied;
            out.debts_repaid += s.debts_repaid;
            out.reclaims += s.reclaims;
            out.lease_reclaims += s.lease_reclaims;
            out.stale_releases += s.stale_releases;
        }
        out
    }

    /// Arm per-grant leases on every partition.
    pub fn enable_leases(&mut self, ttl: Duration) {
        for p in self.parts.iter_mut() {
            p.enable_leases(ttl);
        }
    }

    /// Whether leases are armed (uniform across partitions).
    #[must_use]
    pub fn leases_enabled(&self) -> bool {
        self.parts.iter().any(|p| p.leases_enabled())
    }

    /// Live leases across all partitions.
    #[must_use]
    pub fn live_leases(&self) -> u64 {
        self.parts.iter().map(|p| p.live_leases()).sum()
    }

    /// Stamp the lease clock on every partition.
    #[inline]
    pub fn set_now(&mut self, now: Time) {
        for p in self.parts.iter_mut() {
            p.set_now(now);
        }
    }

    /// Run the lease watchdog on every partition; returns total reclaimed.
    #[must_use]
    pub fn expire_leases(&mut self) -> u64 {
        self.parts.iter_mut().map(|p| p.expire_leases()).sum()
    }

    /// Arm event recording on every partition.
    pub fn arm_trace(&mut self, cap: usize) {
        for p in self.parts.iter_mut() {
            p.arm_trace(cap);
        }
    }

    /// Stamp the trace clock on every partition.
    #[inline]
    pub fn set_trace_now(&mut self, now: Time) {
        for p in self.parts.iter_mut() {
            p.set_trace_now(now);
        }
    }

    /// Drain recorded events from every partition, merged in time order.
    pub fn trace_take(&mut self) -> (Vec<TraceEvent>, u64) {
        let mut parts_evs: Vec<Vec<TraceEvent>> = Vec::new();
        let mut dropped = 0u64;
        for p in self.parts.iter_mut() {
            let (evs, d) = p.trace_take();
            parts_evs.push(evs);
            dropped += d;
        }
        (merge_events(parts_evs), dropped)
    }

    /// Algorithm 1 assignment, routed: each new flow joins its RSS
    /// partition's ledger (grouped so one batch per partition runs).
    pub fn add_flows(&mut self, new: &[FlowId]) {
        if self.parts.len() == 1 {
            self.parts[0].add_flows(new);
            return;
        }
        let mut per_part: Vec<Vec<FlowId>> = vec![Vec::new(); self.parts.len()];
        for f in new {
            per_part[self.partition_of(*f)].push(*f);
        }
        for (q, flows) in per_part.into_iter().enumerate() {
            if !flows.is_empty() {
                self.parts[q].add_flows(&flows);
            }
        }
        debug_assert!(
            self.conserved(),
            "add_flows broke hierarchical conservation"
        );
    }

    /// Remove a flow from its partition.
    pub fn remove_flow(&mut self, f: FlowId) {
        let q = self.partition_of(f);
        self.parts[q].remove_flow(f);
    }

    /// Consume one credit from the flow's partition.
    #[must_use = "admission result decides fast vs slow path"]
    pub fn try_consume(&mut self, f: FlowId) -> bool {
        let q = self.partition_of(f);
        self.parts[q].try_consume(f)
    }

    /// Lazy release into the flow's partition.
    pub fn release(&mut self, f: FlowId, gamma: u64) {
        let q = self.partition_of(f);
        self.parts[q].release(f, gamma);
    }

    /// Release into the flow's partition pool (deprioritized flows).
    pub fn release_to_pool(&mut self, f: FlowId, gamma: u64) {
        let q = self.partition_of(f);
        self.parts[q].release_to_pool(f, gamma);
    }

    /// Reclaim an inactive flow's credits into its partition pool.
    #[must_use = "returns the number of credits actually reclaimed"]
    pub fn reclaim(&mut self, f: FlowId) -> u64 {
        let q = self.partition_of(f);
        self.parts[q].reclaim(f)
    }

    /// Grant up to `amount` from the flow's partition pool.
    #[must_use = "returns the number of credits actually granted"]
    pub fn grant(&mut self, f: FlowId, amount: u64) -> u64 {
        let q = self.partition_of(f);
        self.parts[q].grant(f, amount)
    }

    /// Grant pooled credits evenly to `targets`, respecting partition
    /// boundaries: any global slack is first pushed down evenly to the
    /// partitions that have live targets, then each partition grants its
    /// own pool to its own flows.
    pub fn grant_evenly(&mut self, targets: &[FlowId]) {
        if self.parts.len() == 1 {
            self.parts[0].grant_evenly(targets);
            return;
        }
        let mut per_part: Vec<Vec<FlowId>> = vec![Vec::new(); self.parts.len()];
        for f in targets {
            per_part[self.partition_of(*f)].push(*f);
        }
        if self.global_free > 0 {
            let live: Vec<usize> = (0..self.parts.len())
                .filter(|&q| !per_part[q].is_empty() && !self.quarantined[q])
                .collect();
            if !live.is_empty() {
                let per = self.global_free / live.len() as u64;
                if per > 0 {
                    for &q in &live {
                        self.parts[q].inject_pool(per);
                        self.global_free -= per;
                    }
                }
            }
        }
        for (q, flows) in per_part.into_iter().enumerate() {
            if !flows.is_empty() {
                self.parts[q].grant_evenly(&flows);
            }
        }
        debug_assert!(
            self.conserved(),
            "grant_evenly broke hierarchical conservation"
        );
    }

    /// One borrow/return cycle of the hierarchical ledger, run from the
    /// controller poll. Deterministic, ascending queue order:
    ///
    /// 1. **Return**: a partition that denied nothing since the previous
    ///    rebalance yields its free pool to the global pool
    ///    (`withdraw_pool` — credits assigned to its flows and credits
    ///    riding in-flight packets never move, so a quiet-but-working
    ///    partition keeps everything its flows are actually using).
    /// 2. **Borrow**: a partition that denied admissions takes slack from
    ///    the global pool, bounded by both its unmet demand (the denial
    ///    delta) and a 2× base-share cap on its total, so one hot queue
    ///    cannot starve the rest forever.
    ///
    /// Returns `(returned, borrowed)` credit counts for telemetry. A
    /// single-partition hierarchy is a no-op by construction.
    pub fn rebalance(&mut self) -> (u64, u64) {
        if self.parts.len() <= 1 {
            return (0, 0);
        }
        let mut returned = 0u64;
        let mut borrowed = 0u64;
        // Phase 1: quiet partitions yield their (unassigned) free pool.
        // Quarantined partitions always yield, pressured or not: credits
        // trickling back through lazy releases after the failover must
        // keep draining to the global pool, not re-fund a dead queue.
        for q in 0..self.parts.len() {
            let denied_delta = self.parts[q].stats().denied - self.denied_at_last[q];
            let spare = self.parts[q].free_pool();
            if (denied_delta == 0 || self.quarantined[q]) && spare > 0 {
                let got = self.parts[q].withdraw_pool(spare);
                self.global_free += got;
                returned += got;
            }
        }
        // Phase 2: pressured partitions borrow, bounded. Quarantined
        // partitions never borrow.
        for q in 0..self.parts.len() {
            if self.global_free == 0 {
                break;
            }
            if self.quarantined[q] {
                continue;
            }
            let denied_delta = self.parts[q].stats().denied - self.denied_at_last[q];
            if denied_delta == 0 {
                continue;
            }
            let headroom = (2 * self.base[q]).saturating_sub(self.parts[q].total());
            let take = denied_delta.min(headroom).min(self.global_free);
            if take > 0 {
                self.parts[q].inject_pool(take);
                self.global_free -= take;
                borrowed += take;
            }
        }
        for q in 0..self.parts.len() {
            self.denied_at_last[q] = self.parts[q].stats().denied;
        }
        debug_assert!(
            self.conserved(),
            "rebalance broke hierarchical conservation"
        );
        (returned, borrowed)
    }

    /// Whether partition `q` is quarantined (its receive queue failed
    /// over and has not yet recovered).
    #[must_use]
    pub fn is_quarantined(&self, q: usize) -> bool {
        self.quarantined.get(q).copied().unwrap_or(false)
    }

    /// Quarantine partition `q` after its receive queue failed over: its
    /// entire free pool moves to the global pool (conservation-preserving
    /// — only *free* credits migrate; assigned and outstanding balances
    /// stay in the partition and drain back through the normal release
    /// paths, from where [`ShardedCredits::rebalance`] keeps sweeping
    /// them global until the partition is restored). While quarantined
    /// the partition neither borrows at rebalance nor receives
    /// granted-down global slack. Idempotent; returns the credits moved.
    #[must_use = "the swept credit count feeds the failover accounting"]
    pub fn quarantine_partition(&mut self, q: usize) -> u64 {
        if q >= self.parts.len() || self.quarantined[q] {
            return 0;
        }
        self.quarantined[q] = true;
        let spare = self.parts[q].free_pool();
        let got = self.parts[q].withdraw_pool(spare);
        self.global_free += got;
        debug_assert!(
            self.conserved(),
            "quarantine_partition broke hierarchical conservation"
        );
        got
    }

    /// Restore partition `q` after its receive queue recovered: lift the
    /// quarantine and refill the partition back toward its base share
    /// from the global pool (bounded by both the base-share deficit and
    /// the slack actually available — never minting, never raiding other
    /// partitions). Idempotent; returns the credits returned.
    #[must_use = "the refilled credit count feeds the recovery accounting"]
    pub fn restore_partition(&mut self, q: usize) -> u64 {
        if q >= self.parts.len() || !self.quarantined[q] {
            return 0;
        }
        self.quarantined[q] = false;
        let deficit = self.base[q].saturating_sub(self.parts[q].total());
        let give = deficit.min(self.global_free);
        if give > 0 {
            self.parts[q].inject_pool(give);
            self.global_free -= give;
        }
        debug_assert!(
            self.conserved(),
            "restore_partition broke hierarchical conservation"
        );
        give
    }

    /// Deliberately leak one credit from partition `q`'s free pool without
    /// a balancing entry — a per-partition Eq. 1 violation (see
    /// [`CreditManager::leak_credit_for_tests`]). Only compiled in test
    /// builds or under the `test-hooks` feature; the bounded model checker in
    /// `crates/audit` uses it to prove the hierarchical conservation check
    /// catches real bugs.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn leak_partition_credit_for_tests(&mut self, q: usize) {
        self.parts[q].leak_credit_for_tests();
    }

    /// Deliberately mint one credit into the global pool out of thin air —
    /// a hierarchy-level conservation violation (`Σ total_q + global_free`
    /// exceeds `C_total`). Only compiled in test builds or under the
    /// `test-hooks` feature.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn mint_global_credit_for_tests(&mut self) {
        self.global_free += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<FlowId> {
        v.iter().map(|&i| FlowId(i)).collect()
    }

    /// A flow landing in partition `q` of an `n`-way hierarchy (search by
    /// hash, so tests stay valid if the RSS finalizer ever changes).
    fn flow_in(sc: &ShardedCredits, q: usize) -> FlowId {
        for i in 0..10_000u32 {
            if sc.partition_of(FlowId(i)) == q {
                return FlowId(i);
            }
        }
        unreachable!("no flow hashes to partition {q}");
    }

    #[test]
    fn single_partition_matches_flat_manager() {
        let mut sc = ShardedCredits::new(3000, 1);
        let mut cm = CreditManager::new(3000);
        sc.add_flows(&ids(&[1, 2, 3]));
        cm.add_flows(&ids(&[1, 2, 3]));
        for f in 1..=3u32 {
            assert_eq!(sc.credits(FlowId(f)), cm.credits(FlowId(f)));
            assert!(sc.try_consume(FlowId(f)));
            assert!(cm.try_consume(FlowId(f)));
        }
        sc.release(FlowId(1), 1);
        cm.release(FlowId(1), 1);
        assert_eq!(sc.outstanding(), cm.outstanding());
        assert_eq!(sc.free_pool(), cm.free_pool());
        assert_eq!(sc.total(), cm.total());
        assert_eq!(sc.rebalance(), (0, 0));
        assert!(sc.conserved());
    }

    #[test]
    fn split_seeds_partitions_exactly() {
        let sc = ShardedCredits::new(3001, 4);
        let totals: Vec<u64> = (0..4)
            .map(|q| sc.partition(q).map(|p| p.total()).unwrap_or(0))
            .collect();
        assert_eq!(totals.iter().sum::<u64>(), 3001);
        // Remainder lands on partition 0.
        assert_eq!(totals[0], 750 + 1);
        assert_eq!(sc.global_free(), 0);
        assert!(sc.conserved());
    }

    #[test]
    fn flows_route_to_their_rss_partition() {
        let mut sc = ShardedCredits::new(4000, 4);
        let flows = ids(&[0, 1, 2, 3, 4, 5, 6, 7]);
        sc.add_flows(&flows);
        for f in &flows {
            let q = sc.partition_of(*f);
            assert!(
                sc.partition(q).map(|p| p.credits(*f) > 0).unwrap_or(false),
                "flow {} not funded by its partition {q}",
                f.0
            );
            // And is unknown everywhere else.
            for other in 0..4 {
                if other != q {
                    assert_eq!(sc.partition(other).map(|p| p.credits(*f)), Some(0));
                }
            }
        }
        assert!(sc.conserved());
    }

    #[test]
    fn rebalance_moves_slack_to_pressured_partition() {
        let mut sc = ShardedCredits::new(4000, 4);
        let hot = flow_in(&sc, 2);
        sc.add_flows(&[hot]);
        // Exhaust the hot partition so it registers denials.
        while sc.try_consume(hot) {}
        assert!(!sc.try_consume(hot));
        let hot_total_before = sc.partition(2).map(|p| p.total()).unwrap_or(0);
        let (returned, borrowed) = sc.rebalance();
        // Quiet partitions (0,1,3) hold only free credits: all of it moves.
        assert!(returned > 0, "quiet partitions must yield slack");
        assert!(borrowed > 0, "pressured partition must borrow");
        assert!(sc.partition(2).map(|p| p.total()).unwrap_or(0) > hot_total_before);
        // Borrow is bounded by unmet demand and the 2x-base cap.
        assert!(
            sc.partition(2).map(|p| p.total()).unwrap_or(0) <= 2 * 1000,
            "borrow must respect the 2x base cap"
        );
        assert!(sc.conserved());
        // The borrowed slack is free in the hot partition: admission resumes.
        let _ = sc.grant(hot, 1);
        assert!(sc.try_consume(hot));
        assert!(sc.conserved());
    }

    #[test]
    fn quiet_partition_reclaims_only_free_credits() {
        let mut sc = ShardedCredits::new(4000, 4);
        let f0 = flow_in(&sc, 0);
        sc.add_flows(&[f0]);
        // Partition 0 consumes some credits (outstanding) but denies none.
        for _ in 0..10 {
            assert!(sc.try_consume(f0));
        }
        let before = sc.outstanding();
        let (_returned, borrowed) = sc.rebalance();
        assert_eq!(borrowed, 0, "nobody under pressure, nothing borrowed");
        // Outstanding credits never migrate.
        assert_eq!(sc.outstanding(), before);
        assert!(sc.conserved());
    }

    #[test]
    fn grant_evenly_respects_partitions_and_flushes_global_slack() {
        let mut sc = ShardedCredits::new(4000, 4);
        let a = flow_in(&sc, 0);
        let b = flow_in(&sc, 1);
        sc.add_flows(&[a, b]);
        // Manufacture global slack: partitions 2 and 3 are quiet and yield
        // their full (free) base share.
        let (returned, _) = sc.rebalance();
        assert!(returned >= 2000 - 2, "empty partitions yield their share");
        assert!(sc.global_free() > 0);
        let ca = sc.credits(a);
        let cb = sc.credits(b);
        sc.grant_evenly(&[a, b]);
        assert!(sc.credits(a) > ca);
        assert!(sc.credits(b) > cb);
        assert_eq!(sc.global_free(), 0, "slack flushed down to live partitions");
        assert!(sc.conserved());
    }

    #[test]
    fn leases_and_stats_aggregate_across_partitions() {
        let mut sc = ShardedCredits::new(4000, 4);
        sc.enable_leases(Duration::nanos(50));
        let a = flow_in(&sc, 0);
        let b = flow_in(&sc, 1);
        sc.add_flows(&[a, b]);
        sc.set_now(Time(0));
        assert!(sc.try_consume(a));
        assert!(sc.try_consume(b));
        assert_eq!(sc.live_leases(), 2);
        assert_eq!(sc.stats().consumed, 2);
        sc.set_now(Time(100));
        assert_eq!(sc.expire_leases(), 2);
        assert_eq!(sc.stats().lease_reclaims, 2);
        assert_eq!(sc.outstanding(), 0);
        assert!(sc.conserved());
    }

    #[test]
    fn quarantine_moves_free_credits_and_restore_refills() {
        let mut sc = ShardedCredits::new(4000, 4);
        let f = flow_in(&sc, 1);
        sc.add_flows(&[f]);
        for _ in 0..5 {
            assert!(sc.try_consume(f));
        }
        // Park the flow's unconsumed credits in the partition pool so the
        // quarantine has free credits to migrate.
        let _ = sc.reclaim(f);
        let free_before = sc.partition(1).map(|p| p.free_pool()).unwrap_or(0);
        assert!(free_before > 0);
        let out_before = sc.outstanding();
        let moved = sc.quarantine_partition(1);
        assert_eq!(moved, free_before, "exactly the free pool migrates");
        assert!(sc.is_quarantined(1));
        assert_eq!(sc.partition(1).map(|p| p.free_pool()), Some(0));
        assert_eq!(sc.global_free(), moved);
        // Outstanding and assigned balances never migrate.
        assert_eq!(sc.outstanding(), out_before);
        assert!(sc.conserved());
        // Idempotent.
        assert_eq!(sc.quarantine_partition(1), 0);
        // Restore refills toward base from the global pool.
        let returned = sc.restore_partition(1);
        assert!(!sc.is_quarantined(1));
        assert_eq!(returned, moved, "slack untouched, full refill available");
        assert_eq!(sc.global_free(), 0);
        assert!(sc.conserved());
        assert_eq!(sc.restore_partition(1), 0, "restore is idempotent");
    }

    #[test]
    fn quarantined_partition_keeps_draining_and_never_borrows() {
        let mut sc = ShardedCredits::new(4000, 4);
        let f = flow_in(&sc, 2);
        sc.add_flows(&[f]);
        // Exhaust the partition so it registers denials (pressure), then
        // let some in-flight credits come back after the quarantine.
        while sc.try_consume(f) {}
        let _ = sc.quarantine_partition(2);
        sc.release(f, 7);
        let _ = sc.reclaim(f);
        let part_free = sc.partition(2).map(|p| p.free_pool()).unwrap_or(0);
        assert!(part_free > 0, "released credits land in the partition pool");
        let total_before = sc.partition(2).map(|p| p.total()).unwrap_or(0);
        let (returned, _borrowed) = sc.rebalance();
        // Despite its denial pressure the quarantined partition donates
        // its trickled-back credits and borrows nothing.
        assert!(returned >= part_free);
        assert!(sc.partition(2).map(|p| p.total()).unwrap_or(0) <= total_before);
        assert_eq!(sc.partition(2).map(|p| p.free_pool()), Some(0));
        assert!(sc.conserved());
    }

    #[test]
    fn grant_evenly_skips_quarantined_partitions() {
        let mut sc = ShardedCredits::new(4000, 4);
        let a = flow_in(&sc, 0);
        let b = flow_in(&sc, 1);
        sc.add_flows(&[a, b]);
        let _ = sc.rebalance(); // quiet partitions 2,3 yield global slack
        let moved = sc.quarantine_partition(1);
        let slack = sc.global_free();
        assert!(slack >= moved);
        let b_total_before = sc.partition(1).map(|p| p.total()).unwrap_or(0);
        sc.grant_evenly(&[a, b]);
        // All pushed-down slack went to partition 0; the quarantined
        // partition's total is unchanged.
        assert_eq!(sc.partition(1).map(|p| p.total()), Some(b_total_before));
        assert!(sc.credits(a) > 0);
        assert!(sc.conserved());
    }

    #[test]
    fn rebalance_with_no_spare_moves_nothing() {
        let mut sc = ShardedCredits::new(4000, 4);
        // Every partition fully assigns its share to a local flow: no
        // partition holds free credits, so nothing can migrate even
        // though one partition registers pressure.
        let flows: Vec<FlowId> = (0..4).map(|q| flow_in(&sc, q)).collect();
        sc.add_flows(&flows);
        while sc.try_consume(flows[0]) {}
        assert!(!sc.try_consume(flows[0]));
        let (returned, borrowed) = sc.rebalance();
        assert_eq!(returned, 0, "no spare anywhere, nothing returned");
        assert_eq!(borrowed, 0, "empty global pool, nothing borrowed");
        assert!(sc.conserved());
    }

    #[test]
    fn rebalance_borrow_saturates_at_twice_base() {
        let mut sc = ShardedCredits::new(4000, 4);
        let hot = flow_in(&sc, 2);
        sc.add_flows(&[hot]);
        // Deny far more than the 2x-base headroom could ever satisfy.
        for _ in 0..5000 {
            let _ = sc.try_consume(hot);
        }
        let denied = sc.partition(2).map(|p| p.stats().denied).unwrap_or(0);
        assert!(denied > 2000, "demand must exceed the cap: {denied}");
        let (_returned, borrowed) = sc.rebalance();
        let total = sc.partition(2).map(|p| p.total()).unwrap_or(0);
        assert_eq!(total, 2 * 1000, "borrow stops exactly at 2x base");
        assert_eq!(borrowed, 1000);
        // A second rebalance under continued pressure borrows nothing
        // more: the ceiling saturates.
        while sc.try_consume(hot) {}
        let (_r2, b2) = sc.rebalance();
        assert_eq!(b2, 0, "already at the cap");
        assert_eq!(sc.partition(2).map(|p| p.total()), Some(2 * 1000));
        assert!(sc.conserved());
    }

    #[test]
    fn single_queue_rebalance_and_quarantine_are_noops() {
        let mut sc = ShardedCredits::new(3000, 1);
        sc.add_flows(&ids(&[1, 2]));
        assert!(sc.try_consume(FlowId(1)));
        assert_eq!(sc.rebalance(), (0, 0), "one partition: nothing to move");
        assert_eq!(sc.global_free(), 0);
        // Quarantining the only partition still conserves (degenerate but
        // legal: the machine never fails over its last usable queue, yet
        // the ledger must not corrupt if asked).
        let moved = sc.quarantine_partition(0);
        assert!(sc.conserved());
        let back = sc.restore_partition(0);
        assert_eq!(back, moved);
        assert_eq!(sc.global_free(), 0);
        assert!(sc.conserved());
    }

    #[test]
    fn remove_flow_and_pool_release_stay_conserved() {
        let mut sc = ShardedCredits::new(4000, 2);
        let a = flow_in(&sc, 0);
        sc.add_flows(&[a]);
        for _ in 0..5 {
            assert!(sc.try_consume(a));
        }
        sc.remove_flow(a);
        // In-flight credits return to the partition pool post-teardown.
        sc.release(a, 3);
        sc.release_to_pool(a, 2);
        assert_eq!(sc.outstanding(), 0);
        assert!(sc.conserved());
    }
}
