//! The Algorithm 1 credit manager exactly as it was before the dense
//! ledger: `BTreeMap` per-flow ledgers with a `BTreeMap` owed ledger per
//! flow, a `BTreeSet` insufficient set and `BTreeMap` lease queues.
//!
//! Test-only reference model. `credit_reference.rs` drives random op
//! traces through it and through `ceio_core::CreditManager` and requires
//! identical observable behaviour. Apart from this header, the module
//! docs and the test module (dropped), the code is unchanged; do not
//! optimise it.

#![allow(dead_code)]

use ceio_net::FlowId;
use ceio_sim::{Duration, Time};
use ceio_telemetry::{TraceEvent, TraceKind, TraceRing};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Per-flow credit state.
#[derive(Debug, Default, Clone)]
struct FlowCredits {
    credits: u64,
    /// Debts to other flows: `owed[j] = o_j^i` (this flow owes `j`).
    owed: BTreeMap<FlowId, u64>,
}

/// Manager statistics.
#[derive(Debug, Default, Clone)]
pub struct CreditStats {
    /// Successful credit consumptions (fast-path admissions).
    pub consumed: u64,
    /// Denied consumptions (slow-path degradations).
    pub denied: u64,
    /// Credits repaid through the owed ledger.
    pub debts_repaid: u64,
    /// Reclaim operations (inactive-flow recycling).
    pub reclaims: u64,
    /// Credits reclaimed by the lease watchdog (a grant whose release
    /// never arrived within the TTL).
    pub lease_reclaims: u64,
    /// Late releases dropped because the watchdog had already reclaimed
    /// their grant (double-return prevention).
    pub stale_releases: u64,
}

/// Per-grant expiry tracking, armed at runtime via
/// [`CreditManager::enable_leases`].
///
/// Every successful [`CreditManager::try_consume`] records a lease that
/// expires `ttl` after the grant; the controller's watchdog
/// ([`CreditManager::expire_leases`]) moves expired grants from
/// `outstanding` back to the free pool, so a *lost* lazy release can no
/// longer strand credits forever. A release that arrives *after* its
/// lease expired finds no live lease and is ignored (the credits were
/// already reclaimed) — this is what keeps Eq. 1 conservation exact in
/// the face of both loss and late delivery.
///
/// Grants are pushed in nondecreasing time order, so each per-flow queue
/// is sorted and expiry is a prefix pop.
#[derive(Debug, Clone)]
struct LeaseTable {
    ttl: Duration,
    now: Time,
    /// Expiry instants of live leases, per flow, oldest first.
    expiries: BTreeMap<FlowId, VecDeque<Time>>,
    /// Live leases across all flows (== `outstanding` when armed from the
    /// first grant; asserted by the audit layer).
    live: u64,
}

/// The CEIO credit manager (Algorithm 1).
///
/// ```
/// use ceio_core::CreditManager;
/// use ceio_net::FlowId;
///
/// // Eq. 1: 6 MB DDIO partition / 2 KB buffers.
/// let mut cm = CreditManager::new(3072);
///
/// // First connection takes the whole budget (S4.1's example).
/// cm.add_flows(&[FlowId(1)]);
/// assert_eq!(cm.credits(FlowId(1)), 3072);
///
/// // A second connection splits it; packets consume and lazily release.
/// cm.add_flows(&[FlowId(2)]);
/// assert_eq!(cm.credits(FlowId(2)), 1536);
/// assert!(cm.try_consume(FlowId(2)));
/// cm.release(FlowId(2), 1);
/// assert!(cm.conserved());
/// ```
#[derive(Debug, Clone)]
pub struct CreditManager {
    total: u64,
    /// Per-flow ledgers, ordered by flow id: Algorithm 1 sweeps this map,
    /// and an ordered map keeps those sweeps deterministic by construction.
    flows: BTreeMap<FlowId, FlowCredits>,
    /// The insufficient set `I`: flows with outstanding debts.
    insufficient: BTreeSet<FlowId>,
    /// Credits not assigned to any flow (rounding residue, reclaimed,
    /// or released by removed flows).
    free_pool: u64,
    /// Credits currently held by in-flight packets.
    outstanding: u64,
    /// Per-grant leases (`None` until armed; one pointer test per hook).
    leases: Option<Box<LeaseTable>>,
    stats: CreditStats,
    tracer: Option<TraceRing>,
    /// Simulated clock for trace timestamps: the manager is clockless, so
    /// the policy stamps it at each hook entry via
    /// [`CreditManager::set_trace_now`].
    trace_now: Time,
}

impl CreditManager {
    /// A manager with `total` credits, all in the free pool.
    pub fn new(total: u64) -> CreditManager {
        CreditManager {
            total,
            flows: BTreeMap::new(),
            insufficient: BTreeSet::new(),
            free_pool: total,
            outstanding: 0,
            leases: None,
            stats: CreditStats::default(),
            tracer: None,
            trace_now: Time::ZERO,
        }
    }

    /// Arm event recording into a fresh drop-oldest ring of `cap` events.
    pub fn arm_trace(&mut self, cap: usize) {
        self.tracer = Some(TraceRing::new(cap));
    }

    /// Stamp the simulated clock used for subsequent trace events (the
    /// manager itself is clockless; callers set this at hook entry).
    #[inline]
    pub fn set_trace_now(&mut self, now: Time) {
        self.trace_now = now;
    }

    /// Drain recorded events (and the dropped count), if armed.
    pub fn trace_take(&mut self) -> (Vec<TraceEvent>, u64) {
        match self.tracer.as_mut() {
            Some(r) => {
                let evs = r.events();
                let dropped = r.dropped();
                r.clear();
                (evs, dropped)
            }
            None => (Vec::new(), 0),
        }
    }

    #[inline]
    fn trace(&mut self, flow: FlowId, kind: TraceKind, value: u64) {
        if let Some(r) = self.tracer.as_mut() {
            r.push(TraceEvent {
                at: self.trace_now,
                flow: Some(flow.0),
                kind,
                value,
            });
        }
    }

    /// Configured total (Eq. 1).
    #[inline]
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Credits currently held by in-flight packets.
    #[inline]
    #[must_use]
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Credits in the free pool.
    #[inline]
    #[must_use]
    pub fn free_pool(&self) -> u64 {
        self.free_pool
    }

    /// Current credits of a flow (0 if unknown).
    #[must_use]
    pub fn credits(&self, f: FlowId) -> u64 {
        self.flows.get(&f).map(|c| c.credits).unwrap_or(0)
    }

    /// Whether a flow is in the insufficient set `I`.
    #[must_use]
    pub fn in_insufficient(&self, f: FlowId) -> bool {
        self.insufficient.contains(&f)
    }

    /// Total debt a flow owes.
    #[must_use]
    pub fn debt_of(&self, f: FlowId) -> u64 {
        self.flows
            .get(&f)
            .map(|c| c.owed.values().sum())
            .unwrap_or(0)
    }

    /// Number of managed flows.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &CreditStats {
        &self.stats
    }

    /// Sum of credits currently assigned to flows.
    #[must_use]
    pub fn assigned_total(&self) -> u64 {
        self.flows.values().map(|c| c.credits).sum()
    }

    /// Conservation check: assigned + pool + outstanding == total.
    /// (Debug aid; cheap enough to assert in tests and controller polls.)
    #[must_use]
    pub fn conserved(&self) -> bool {
        self.assigned_total() + self.free_pool + self.outstanding == self.total
    }

    /// Arm per-grant credit leases with the given time-to-live.
    ///
    /// From this point every successful [`CreditManager::try_consume`]
    /// carries a lease; [`CreditManager::expire_leases`] (the controller
    /// watchdog) reclaims grants whose release never arrived within `ttl`.
    /// Arm before the first consumption so `live_leases() == outstanding`
    /// holds throughout (pre-existing outstanding grants are unleased and
    /// can still only return via their release).
    pub fn enable_leases(&mut self, ttl: Duration) {
        self.leases = Some(Box::new(LeaseTable {
            ttl,
            now: Time::ZERO,
            expiries: BTreeMap::new(),
            live: 0,
        }));
    }

    /// Whether leases are armed.
    #[must_use]
    pub fn leases_enabled(&self) -> bool {
        self.leases.is_some()
    }

    /// Live (unexpired, unreleased) leases across all flows. 0 when
    /// leases are disarmed.
    #[must_use]
    pub fn live_leases(&self) -> u64 {
        self.leases.as_ref().map(|l| l.live).unwrap_or(0)
    }

    /// Stamp the simulated clock used for lease grants and expiry. The
    /// manager is clockless, so the policy stamps this at hook entry;
    /// calls are monotone because simulation time is.
    #[inline]
    pub fn set_now(&mut self, now: Time) {
        if let Some(l) = self.leases.as_mut() {
            l.now = now;
        }
    }

    /// Consume up to `gamma` live leases of flow `f` (oldest first) and
    /// return how many were actually live. The difference is the number
    /// of *stale* returns: grants the watchdog already reclaimed, whose
    /// credits must not be returned a second time.
    #[inline]
    fn take_leases(&mut self, f: FlowId, gamma: u64) -> u64 {
        let Some(l) = self.leases.as_mut() else {
            return gamma;
        };
        let Some(q) = l.expiries.get_mut(&f) else {
            self.stats.stale_releases += gamma;
            return 0;
        };
        let take = gamma.min(q.len() as u64);
        for _ in 0..take {
            q.pop_front();
        }
        if q.is_empty() {
            l.expiries.remove(&f);
        }
        l.live -= take;
        self.stats.stale_releases += gamma - take;
        take
    }

    /// Lease watchdog: reclaim every grant whose TTL elapsed, moving its
    /// credit from `outstanding` back to the free pool. Returns the
    /// number of credits reclaimed. Call from the controller poll (the
    /// natural periodic hook); a no-op when leases are disarmed or
    /// nothing expired.
    #[must_use]
    pub fn expire_leases(&mut self) -> u64 {
        let Some(l) = self.leases.as_mut() else {
            return 0;
        };
        let now = l.now;
        let mut expired_total = 0u64;
        let mut per_flow: Vec<(FlowId, u64)> = Vec::new();
        l.expiries.retain(|_f, q| {
            let mut expired = 0u64;
            while let Some(&e) = q.front() {
                if e <= now {
                    q.pop_front();
                    expired += 1;
                } else {
                    break;
                }
            }
            if expired > 0 {
                per_flow.push((*_f, expired));
                expired_total += expired;
            }
            !q.is_empty()
        });
        if expired_total > 0 {
            l.live -= expired_total;
            debug_assert!(
                expired_total <= self.outstanding,
                "lease ledger exceeds outstanding grants"
            );
            self.outstanding -= expired_total.min(self.outstanding);
            self.free_pool += expired_total;
            self.stats.lease_reclaims += expired_total;
            per_flow.sort_unstable_by_key(|&(f, _)| f);
            for (f, n) in per_flow {
                self.trace(f, TraceKind::CreditLeaseReclaim, n);
            }
        }
        debug_assert!(self.conserved(), "expire_leases broke Eq. 1 conservation");
        expired_total
    }

    /// Algorithm 1, assignment: admit `new` flows, redistributing credits
    /// so each flow converges toward `C_total / (n + m)`.
    pub fn add_flows(&mut self, new: &[FlowId]) {
        let mut fresh: Vec<FlowId> = new
            .iter()
            .copied()
            .filter(|f| !self.flows.contains_key(f))
            .collect();
        // Duplicates within one arrival batch would overwrite each other's
        // allocation (leaking credits); each id joins exactly once.
        fresh.sort_unstable();
        fresh.dedup();
        if fresh.is_empty() {
            return;
        }
        let n = self.flows.len() as u64;
        let m = fresh.len() as u64;
        let c_flow = self.total / (n + m);

        // Target transfer: the new flows collectively need m * c_flow.
        // First take from the free pool, then from existing flows.
        let mut collected = self.free_pool.min(m * c_flow);
        self.free_pool -= collected;

        if n > 0 && collected < m * c_flow {
            let want = m * c_flow - collected;
            // Fair contribution per existing flow (integer ceiling keeps
            // rounding from starving new flows; surplus returns via pool).
            let ideal = want.div_ceil(n);
            // `flows` is ordered, so this visits existing flows in
            // ascending id order — the order Algorithm 1's tests pin.
            let ids: Vec<FlowId> = self.flows.keys().copied().collect();
            for i in ids {
                if collected >= m * c_flow {
                    break;
                }
                let need = (m * c_flow - collected).min(ideal);
                let fc = self
                    .flows
                    .get_mut(&i)
                    .expect("invariant: `ids` only lists flows present in `self.flows`");
                if fc.credits >= need {
                    // Line 4-6: the flow can afford its contribution.
                    fc.credits -= need;
                    collected += need;
                } else {
                    // Lines 8-14: contribute everything, owe the shortfall
                    // to the new flows, spread evenly.
                    let give = fc.credits;
                    fc.credits = 0;
                    collected += give;
                    let shortfall = need - give;
                    let per_new = shortfall / m;
                    let mut rem = shortfall % m;
                    for j in &fresh {
                        let mut share = per_new;
                        if rem > 0 {
                            share += 1;
                            rem -= 1;
                        }
                        if share > 0 {
                            *fc.owed.entry(*j).or_insert(0) += share;
                        }
                    }
                    if fc.owed.values().any(|&o| o > 0) {
                        self.insufficient.insert(i);
                    }
                }
            }
        }

        // Distribute what was collected evenly among the new flows; the
        // remainder goes to the pool (conservation over exactness).
        let per = collected / m;
        let mut rem = collected % m;
        for j in &fresh {
            let mut share = per;
            if rem > 0 {
                share += 1;
                rem -= 1;
            }
            self.flows.insert(
                *j,
                FlowCredits {
                    credits: share,
                    owed: BTreeMap::new(),
                },
            );
        }
        debug_assert!(self.conserved(), "add_flows broke Eq. 1 conservation");
    }

    /// Remove a flow: its credits return to the pool; debts involving it
    /// are forgiven (a promise, not credits, so conservation holds).
    pub fn remove_flow(&mut self, f: FlowId) {
        if let Some(fc) = self.flows.remove(&f) {
            self.free_pool += fc.credits;
        }
        self.insufficient.remove(&f);
        for (i, fc) in self.flows.iter_mut() {
            fc.owed.remove(&f);
            if fc.owed.is_empty() {
                self.insufficient.remove(i);
            }
        }
        debug_assert!(self.conserved(), "remove_flow broke Eq. 1 conservation");
    }

    /// Consume one credit for a packet of flow `f`. Returns `false` (and
    /// counts a denial) when the flow has none — the slow-path trigger.
    #[must_use = "admission result decides fast vs slow path"]
    pub fn try_consume(&mut self, f: FlowId) -> bool {
        let admitted = match self.flows.get_mut(&f) {
            Some(fc) if fc.credits > 0 => {
                fc.credits -= 1;
                self.outstanding += 1;
                self.stats.consumed += 1;
                if let Some(l) = self.leases.as_mut() {
                    l.expiries.entry(f).or_default().push_back(l.now + l.ttl);
                    l.live += 1;
                }
                true
            }
            _ => {
                self.stats.denied += 1;
                false
            }
        };
        self.trace(
            f,
            if admitted {
                TraceKind::CreditGrant
            } else {
                TraceKind::CreditDeny
            },
            1,
        );
        debug_assert!(self.conserved(), "try_consume broke Eq. 1 conservation");
        admitted
    }

    /// Algorithm 1, release: `gamma` credits return from consumed packets
    /// of flow `f`. Debtors repay creditors first, evenly.
    ///
    /// With leases armed, only grants whose lease is still live actually
    /// return; a late release racing the watchdog is dropped (counted in
    /// [`CreditStats::stale_releases`]) because its credits were already
    /// reclaimed to the pool.
    pub fn release(&mut self, f: FlowId, gamma: u64) {
        let gamma = self.take_leases(f, gamma).min(self.outstanding);
        self.outstanding -= gamma;
        let Some(fc) = self.flows.get_mut(&f) else {
            // Flow torn down: returned credits go to the pool.
            self.free_pool += gamma;
            return;
        };
        let mut remaining = gamma;
        if !fc.owed.is_empty() && remaining > 0 {
            // Even spread across creditors (paper lines 19-25, max→min).
            let creditors: Vec<FlowId> = fc.owed.keys().copied().collect();
            let k = creditors.len() as u64;
            let share = (remaining / k).max(1);
            let mut payments: Vec<(FlowId, u64)> = Vec::new();
            for j in creditors {
                if remaining == 0 {
                    break;
                }
                let owe = fc.owed[&j];
                let pay = owe.min(share).min(remaining);
                if pay > 0 {
                    payments.push((j, pay));
                    remaining -= pay;
                    let o = fc
                        .owed
                        .get_mut(&j)
                        .expect("invariant: `payments` keys come from this flow's `owed` map");
                    *o -= pay;
                    if *o == 0 {
                        fc.owed.remove(&j);
                    }
                }
            }
            let cleared = fc.owed.is_empty();
            fc.credits += remaining;
            if cleared {
                self.insufficient.remove(&f);
            }
            // Deliver the payments to creditors (or pool if gone).
            let repaid: u64 = payments.iter().map(|&(_, p)| p).sum();
            for (j, pay) in payments {
                self.stats.debts_repaid += pay;
                match self.flows.get_mut(&j) {
                    Some(cj) => cj.credits += pay,
                    None => self.free_pool += pay,
                }
            }
            if repaid > 0 {
                self.trace(f, TraceKind::CreditOwed, repaid);
            }
        } else {
            fc.credits += remaining;
        }
        debug_assert!(self.conserved(), "release broke Eq. 1 conservation");
    }

    /// Release `gamma` returning credits of flow `f` into the free pool
    /// instead of back to the flow — the §4.1 Q3 reallocation applied to a
    /// flow detected as slow-path resident (likely CPU-bypass): its
    /// returning credits fund fast-path flows rather than re-admitting it.
    pub fn release_to_pool(&mut self, f: FlowId, gamma: u64) {
        let gamma = self.take_leases(f, gamma).min(self.outstanding);
        self.outstanding -= gamma;
        self.free_pool += gamma;
        debug_assert!(self.conserved(), "release_to_pool broke Eq. 1 conservation");
    }

    /// Reclaim all credits of an inactive flow into the free pool (§4.1
    /// Q3). Returns the amount reclaimed.
    #[must_use = "returns the number of credits actually reclaimed"]
    pub fn reclaim(&mut self, f: FlowId) -> u64 {
        let Some(fc) = self.flows.get_mut(&f) else {
            return 0;
        };
        let taken = fc.credits;
        fc.credits = 0;
        self.free_pool += taken;
        if taken > 0 {
            self.stats.reclaims += 1;
            self.trace(f, TraceKind::CreditReclaim, taken);
        }
        debug_assert!(self.conserved(), "reclaim broke Eq. 1 conservation");
        taken
    }

    /// Grant up to `amount` credits from the free pool to one flow
    /// (round-robin re-activation). Returns the amount actually granted.
    #[must_use = "returns the number of credits actually granted"]
    pub fn grant(&mut self, f: FlowId, amount: u64) -> u64 {
        let Some(fc) = self.flows.get_mut(&f) else {
            return 0;
        };
        let granted = amount.min(self.free_pool);
        fc.credits += granted;
        self.free_pool -= granted;
        if granted > 0 {
            self.trace(f, TraceKind::CreditPoolGrant, granted);
        }
        debug_assert!(self.conserved(), "grant broke Eq. 1 conservation");
        granted
    }

    /// Grant the free pool evenly to `targets` (re-activation / active-flow
    /// boost). The indivisible remainder stays pooled.
    pub fn grant_evenly(&mut self, targets: &[FlowId]) {
        let live: Vec<FlowId> = targets
            .iter()
            .copied()
            .filter(|f| self.flows.contains_key(f))
            .collect();
        if live.is_empty() || self.free_pool == 0 {
            return;
        }
        let per = self.free_pool / live.len() as u64;
        if per == 0 {
            return;
        }
        for f in &live {
            self.flows
                .get_mut(f)
                .expect("invariant: `live` retains only ids present in `flows`")
                .credits += per;
            self.free_pool -= per;
        }
        debug_assert!(self.conserved(), "grant_evenly broke Eq. 1 conservation");
    }

    /// Lend `amount` credits into this partition's free pool, growing its
    /// configured total by the same amount — the borrow half of the
    /// hierarchical ledger (a per-queue partition taking slack from the
    /// global pool). Eq. 1 keeps holding *within* the partition because
    /// total and pool move together; the *caller* owns the cross-partition
    /// invariant (Σ partition totals + global free == C_total).
    pub fn inject_pool(&mut self, amount: u64) {
        self.total += amount;
        self.free_pool += amount;
        debug_assert!(self.conserved(), "inject_pool broke Eq. 1 conservation");
    }

    /// Take up to `amount` credits out of this partition's free pool,
    /// shrinking its configured total by the same amount — the return half
    /// of the hierarchical ledger (a quiet partition yielding slack back
    /// to the global pool). Only *free* credits can leave: assigned and
    /// outstanding credits stay where Algorithm 1 put them. Returns the
    /// amount actually withdrawn.
    #[must_use = "returns the number of credits actually withdrawn"]
    pub fn withdraw_pool(&mut self, amount: u64) -> u64 {
        let taken = amount.min(self.free_pool);
        self.free_pool -= taken;
        self.total -= taken;
        debug_assert!(self.conserved(), "withdraw_pool broke Eq. 1 conservation");
        taken
    }

    /// Deliberately leak one credit from the free pool **without**
    /// adjusting any other account — a conservation (Eq. 1) violation.
    ///
    /// Only compiled in test builds or under the `test-hooks` feature; the
    /// audit test suite uses it to prove the invariant layer catches real
    /// bugs (a check that can never fire verifies nothing). Release
    /// builds without `test-hooks` cannot leak or mint credits.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn leak_credit_for_tests(&mut self) {
        self.free_pool = self.free_pool.saturating_sub(1);
    }

    /// Deliberately mint one credit for flow `f` out of thin air (an
    /// overdraft-enabling mutation). Only compiled in test builds or
    /// under the `test-hooks` feature.
    #[cfg(any(test, feature = "test-hooks"))]
    pub fn mint_credit_for_tests(&mut self, f: FlowId) {
        if let Some(fc) = self.flows.get_mut(&f) {
            fc.credits += 1;
        }
    }
}
