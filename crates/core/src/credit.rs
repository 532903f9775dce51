//! Algorithm 1: CEIO credit management.
//!
//! Credits are the unit of LLC admission: one credit ⇔ one I/O buffer's
//! worth of DDIO-reachable cache. The manager maintains the paper's
//! invariant *by construction*:
//!
//! ```text
//! Σ per-flow credits + free pool + credits held by in-flight packets
//!     == C_total                                              (Eq. 1)
//! ```
//!
//! so the LLC can never be overflowed by admitted packets. The three
//! processes of Algorithm 1:
//!
//! * **Assignment** (lines 1–14): when `m` new flows join `n` existing
//!   ones, each flow's fair share becomes `C_total/(n+m)`. Existing flows
//!   that can afford their contribution transfer it immediately; flows that
//!   cannot give everything they have and **owe** the shortfall (ledger
//!   `o_j^i`), recorded in the insufficient set `I`.
//! * **Release** (lines 16–25): credits freed by consumed packets return to
//!   their flow — unless the flow is in `I`, in which case they first repay
//!   creditors, spread evenly (the paper's `max` in lines 21–22 is read as
//!   `min`: a debtor cannot repay more than it owes or more than it has).
//! * **Reclaim/grant** (§4.1 Q3): inactive flows' credits move to a free
//!   pool and are re-granted evenly to active flows.
//!
//! Every per-flow table is a [`FlowMap`] (dense, ascending-id iteration),
//! and each flow's owed ledger is a compact vector sorted by creditor id,
//! so Algorithm 1's sweeps visit flows and creditors in ascending id order
//! and a release touches only the creditors it actually pays.

use ceio_net::{FlowId, FlowMap};
use ceio_sim::{Duration, Time};
use ceio_telemetry::{TraceEvent, TraceKind, TraceRing};
use std::collections::VecDeque;

/// Per-flow credit state.
#[derive(Debug, Default, Clone)]
struct FlowCredits {
    credits: u64,
    /// Debts to other flows, `(j, o_j^i)` (this flow owes `j`), ascending
    /// by creditor id. Every amount is positive (a repaid debt leaves the
    /// ledger), so the flow is in the insufficient set `I` exactly while
    /// this is non-empty.
    owed: Vec<(FlowId, u64)>,
}

/// Add a debt to each of `creditors` (ascending, distinct) in an ascending
/// owed ledger: `per + 1` to each of the first `extra`, `per` to the rest.
/// Every share must be positive. A creditor already in the ledger has the
/// share added to its debt.
///
/// One backward merge, in place: the ledger grows by one slot per
/// creditor, and entries move up from the back until every creditor is
/// placed. Newcomers have the largest ids, so usually no entry moves.
fn owe_each(owed: &mut Vec<(FlowId, u64)>, creditors: &[FlowId], per: u64, extra: usize) {
    let share = |k: usize| per + u64::from(k < extra);
    let (mut i, mut k) = (owed.len(), creditors.len());
    let mut w = i + k;
    owed.resize(w, (FlowId(0), 0));
    while k > 0 {
        let c = creditors[k - 1];
        w -= 1;
        match owed[..i].last() {
            Some(&(j, debt)) if j > c => {
                i -= 1;
                owed[w] = (j, debt);
            }
            Some(&(j, debt)) if j == c => {
                i -= 1;
                k -= 1;
                owed[w] = (c, debt + share(k));
            }
            _ => {
                k -= 1;
                owed[w] = (c, share(k));
            }
        }
    }
    // Each creditor already present left one unused slot, `w - i` in all,
    // between the untouched prefix and the merged tail.
    if w > i {
        owed.copy_within(w.., i);
        owed.truncate(owed.len() - (w - i));
    }
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
    /// Expiry instants of live leases, per flow, oldest first. A queue
    /// stays in place once emptied: an empty queue and a missing one read
    /// the same, and keeping it spares the next grant an allocation.
    expiries: FlowMap<VecDeque<Time>>,
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
    /// Per-flow ledgers. `FlowMap` iterates in ascending flow id, the
    /// order Algorithm 1's sweeps are pinned to, so they stay
    /// deterministic by construction. The insufficient set `I` is the
    /// flows whose owed ledger is non-empty.
    flows: FlowMap<FlowCredits>,
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
            flows: FlowMap::new(),
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

    /// Whether a flow is in the insufficient set `I` (owes any debt).
    #[must_use]
    pub fn in_insufficient(&self, f: FlowId) -> bool {
        self.flows.get(&f).is_some_and(|c| !c.owed.is_empty())
    }

    /// Total debt a flow owes.
    #[must_use]
    pub fn debt_of(&self, f: FlowId) -> u64 {
        self.flows
            .get(&f)
            .map(|c| c.owed.iter().map(|&(_, o)| o).sum())
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
            expiries: FlowMap::new(),
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
        q.drain(..take as usize);
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
        // Ascending flow order, so the reclaim trace is ordered too.
        for (f, q) in l.expiries.iter_mut() {
            let mut expired = 0u64;
            while q.front().is_some_and(|&e| e <= now) {
                q.pop_front();
                expired += 1;
            }
            if expired > 0 {
                expired_total += expired;
                if let Some(r) = self.tracer.as_mut() {
                    r.push(TraceEvent {
                        at: self.trace_now,
                        flow: Some(f.0),
                        kind: TraceKind::CreditLeaseReclaim,
                        value: expired,
                    });
                }
            }
        }
        if expired_total > 0 {
            l.live -= expired_total;
            debug_assert!(
                expired_total <= self.outstanding,
                "lease ledger exceeds outstanding grants"
            );
            self.outstanding -= expired_total.min(self.outstanding);
            self.free_pool += expired_total;
            self.stats.lease_reclaims += expired_total;
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
        let target = m * c_flow;
        let mut collected = self.free_pool.min(target);
        self.free_pool -= collected;

        if n > 0 && collected < target {
            let want = target - collected;
            // Fair contribution per existing flow (integer ceiling keeps
            // rounding from starving new flows; surplus returns via pool).
            let ideal = want.div_ceil(n);
            // Ascending id order — the order Algorithm 1's tests pin. The
            // new flows join only below, so this visits existing ones.
            for (_, fc) in self.flows.iter_mut() {
                if collected >= target {
                    break;
                }
                let need = (target - collected).min(ideal);
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
                    // The first `shortfall % m` new flows are owed one
                    // more; zero shares are not recorded.
                    let shortfall = need - give;
                    let per_new = shortfall / m;
                    let extra = (shortfall % m) as usize;
                    let creditors = if per_new > 0 {
                        &fresh[..]
                    } else {
                        &fresh[..extra]
                    };
                    owe_each(&mut fc.owed, creditors, per_new, extra);
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
                    owed: Vec::new(),
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
        for fc in self.flows.values_mut() {
            if let Ok(i) = fc.owed.binary_search_by_key(&f, |&(c, _)| c) {
                fc.owed.remove(i);
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
                    l.expiries
                        .get_or_insert_with(f, VecDeque::new)
                        .push_back(l.now + l.ttl);
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
        if fc.owed.is_empty() || gamma == 0 {
            fc.credits += gamma;
            debug_assert!(self.conserved(), "release broke Eq. 1 conservation");
            return;
        }
        // Even spread across creditors (paper lines 19-25, max→min), paid
        // in ascending creditor order until the release is spent: only the
        // creditors actually paid are visited. The ledger is taken out so
        // the creditors' accounts can be credited directly.
        let mut owed = std::mem::take(&mut fc.owed);
        let share = (gamma / owed.len() as u64).max(1);
        let mut remaining = gamma;
        // Compact the visited prefix in place: debts still open move down
        // to `kept`, repaid ones drop out.
        let mut kept = 0;
        let mut visited = 0;
        while visited < owed.len() && remaining > 0 {
            let (j, debt) = owed[visited];
            visited += 1;
            // Every ledger amount is positive, so `pay > 0`.
            let pay = debt.min(share).min(remaining);
            remaining -= pay;
            self.stats.debts_repaid += pay;
            match self.flows.get_mut(&j) {
                Some(cj) => cj.credits += pay,
                None => self.free_pool += pay,
            }
            if debt > pay {
                owed[kept] = (j, debt - pay);
                kept += 1;
            }
        }
        owed.drain(kept..visited);
        let fc = self
            .flows
            .get_mut(&f)
            .expect("invariant: the debtor was found above and nothing removed it");
        fc.owed = owed;
        fc.credits += remaining;
        let repaid = gamma - remaining;
        if repaid > 0 {
            self.trace(f, TraceKind::CreditOwed, repaid);
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
        // Unknown ids are skipped; a repeated id is granted once per
        // mention, like a distinct target.
        let live = targets
            .iter()
            .filter(|f| self.flows.contains_key(f))
            .count() as u64;
        if live == 0 || self.free_pool == 0 {
            return;
        }
        let per = self.free_pool / live;
        if per == 0 {
            return;
        }
        for f in targets {
            if let Some(fc) = self.flows.get_mut(f) {
                fc.credits += per;
                self.free_pool -= per;
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<FlowId> {
        v.iter().map(|&i| FlowId(i)).collect()
    }

    #[test]
    fn first_flow_gets_everything() {
        // §4.1: "when a flow f1 is established, the flow controller
        // allocates c1 = 3000 credits to f1".
        let mut cm = CreditManager::new(3000);
        cm.add_flows(&ids(&[1]));
        assert_eq!(cm.credits(FlowId(1)), 3000);
        assert!(cm.conserved());
    }

    #[test]
    fn even_split_on_simultaneous_arrival() {
        let mut cm = CreditManager::new(3000);
        cm.add_flows(&ids(&[1, 2, 3]));
        for f in 1..=3 {
            assert_eq!(cm.credits(FlowId(f)), 1000);
        }
        assert!(cm.conserved());
    }

    #[test]
    fn rich_existing_flow_funds_newcomer() {
        let mut cm = CreditManager::new(3000);
        cm.add_flows(&ids(&[1]));
        cm.add_flows(&ids(&[2]));
        // C_flow = 1500 each.
        assert_eq!(cm.credits(FlowId(1)), 1500);
        assert_eq!(cm.credits(FlowId(2)), 1500);
        assert!(!cm.in_insufficient(FlowId(1)));
        assert!(cm.conserved());
    }

    #[test]
    fn poor_existing_flow_owes_shortfall() {
        let mut cm = CreditManager::new(3000);
        cm.add_flows(&ids(&[1]));
        // Flow 1 spends most credits on in-flight packets.
        for _ in 0..2900 {
            assert!(cm.try_consume(FlowId(1)));
        }
        assert_eq!(cm.credits(FlowId(1)), 100);
        cm.add_flows(&ids(&[2]));
        // Flow 1 can only give its 100; it owes the remaining 1400.
        assert_eq!(cm.credits(FlowId(1)), 0);
        assert_eq!(cm.credits(FlowId(2)), 100);
        assert!(cm.in_insufficient(FlowId(1)));
        assert_eq!(cm.debt_of(FlowId(1)), 1400);
        assert!(cm.conserved());
    }

    #[test]
    fn release_repays_debt_before_self() {
        let mut cm = CreditManager::new(3000);
        cm.add_flows(&ids(&[1]));
        for _ in 0..2900 {
            let _ = cm.try_consume(FlowId(1));
        }
        cm.add_flows(&ids(&[2]));
        let debt = cm.debt_of(FlowId(1));
        assert_eq!(debt, 1400);
        // 1000 credits return: all go to the creditor.
        cm.release(FlowId(1), 1000);
        assert_eq!(cm.debt_of(FlowId(1)), 400);
        assert_eq!(cm.credits(FlowId(2)), 100 + 1000);
        assert_eq!(cm.credits(FlowId(1)), 0);
        assert!(cm.in_insufficient(FlowId(1)));
        // Remaining debt cleared; surplus stays with flow 1.
        cm.release(FlowId(1), 1000);
        assert_eq!(cm.debt_of(FlowId(1)), 0);
        assert!(!cm.in_insufficient(FlowId(1)));
        assert_eq!(cm.credits(FlowId(1)), 600);
        assert!(cm.conserved());
    }

    #[test]
    fn consume_denied_at_zero() {
        let mut cm = CreditManager::new(2);
        cm.add_flows(&ids(&[1]));
        assert!(cm.try_consume(FlowId(1)));
        assert!(cm.try_consume(FlowId(1)));
        assert!(!cm.try_consume(FlowId(1)));
        assert_eq!(cm.stats().denied, 1);
        assert!(cm.conserved());
    }

    #[test]
    fn unknown_flow_cannot_consume() {
        let mut cm = CreditManager::new(10);
        assert!(!cm.try_consume(FlowId(9)));
    }

    #[test]
    fn remove_flow_returns_credits_and_forgives_debts() {
        let mut cm = CreditManager::new(3000);
        cm.add_flows(&ids(&[1]));
        for _ in 0..2900 {
            let _ = cm.try_consume(FlowId(1));
        }
        cm.add_flows(&ids(&[2]));
        assert!(cm.in_insufficient(FlowId(1)));
        // Creditor leaves: debt forgiven.
        cm.remove_flow(FlowId(2));
        assert!(!cm.in_insufficient(FlowId(1)));
        assert_eq!(cm.debt_of(FlowId(1)), 0);
        assert!(cm.conserved());
        // Outstanding packets of flow 1 still return cleanly.
        cm.release(FlowId(1), 2900);
        assert!(cm.conserved());
        assert_eq!(cm.outstanding(), 0);
    }

    #[test]
    fn release_after_flow_removal_goes_to_pool() {
        let mut cm = CreditManager::new(100);
        cm.add_flows(&ids(&[1]));
        for _ in 0..50 {
            let _ = cm.try_consume(FlowId(1));
        }
        cm.remove_flow(FlowId(1));
        cm.release(FlowId(1), 50);
        assert_eq!(cm.free_pool(), 100);
        assert!(cm.conserved());
    }

    #[test]
    fn reclaim_and_grant_evenly() {
        let mut cm = CreditManager::new(3000);
        cm.add_flows(&ids(&[1, 2, 3]));
        let taken = cm.reclaim(FlowId(3));
        assert_eq!(taken, 1000);
        assert_eq!(cm.credits(FlowId(3)), 0);
        cm.grant_evenly(&ids(&[1, 2]));
        assert_eq!(cm.credits(FlowId(1)), 1500);
        assert_eq!(cm.credits(FlowId(2)), 1500);
        assert!(cm.conserved());
    }

    #[test]
    fn grant_ignores_unknown_targets_and_keeps_remainder() {
        let mut cm = CreditManager::new(10);
        cm.add_flows(&ids(&[1, 2, 3]));
        let _ = cm.reclaim(FlowId(3)); // pool = 3 (1 rounding + 3... )
        let pool = cm.free_pool();
        cm.grant_evenly(&ids(&[1, 2, 99]));
        assert!(cm.conserved());
        assert!(cm.free_pool() <= pool);
    }

    #[test]
    fn many_flows_integer_rounding_conserves() {
        let mut cm = CreditManager::new(3072);
        // Add flows in odd-sized waves to exercise rounding paths.
        cm.add_flows(&ids(&[0, 1, 2]));
        cm.add_flows(&ids(&[3, 4, 5, 6, 7]));
        cm.add_flows(&(8..40).map(FlowId).collect::<Vec<_>>());
        assert!(cm.conserved());
        let sum: u64 = (0..40).map(|i| cm.credits(FlowId(i))).sum();
        assert!(sum <= 3072);
        assert!(sum > 3072 - 80, "rounding loss bounded, sum={sum}");
    }

    #[test]
    fn lease_expiry_reclaims_lost_release() {
        let mut cm = CreditManager::new(4);
        cm.enable_leases(Duration::nanos(100));
        cm.add_flows(&ids(&[1]));
        cm.set_now(Time(0));
        assert!(cm.try_consume(FlowId(1)));
        assert!(cm.try_consume(FlowId(1)));
        assert_eq!(cm.live_leases(), 2);
        assert_eq!(cm.outstanding(), 2);
        // Both releases are lost. Before the TTL nothing happens…
        cm.set_now(Time(99));
        assert_eq!(cm.expire_leases(), 0);
        // …after it the watchdog moves the grants back to the pool.
        cm.set_now(Time(150));
        assert_eq!(cm.expire_leases(), 2);
        assert_eq!(cm.live_leases(), 0);
        assert_eq!(cm.outstanding(), 0);
        assert_eq!(cm.free_pool(), 2);
        assert_eq!(cm.stats().lease_reclaims, 2);
        assert!(cm.conserved());
    }

    #[test]
    fn late_release_after_reclaim_is_dropped() {
        let mut cm = CreditManager::new(4);
        cm.enable_leases(Duration::nanos(50));
        cm.add_flows(&ids(&[1]));
        cm.set_now(Time(0));
        assert!(cm.try_consume(FlowId(1)));
        cm.set_now(Time(100));
        assert_eq!(cm.expire_leases(), 1);
        let pool = cm.free_pool();
        let credits = cm.credits(FlowId(1));
        // The delayed release finally lands: its grant is gone, so the
        // credit must NOT return twice.
        cm.release(FlowId(1), 1);
        assert_eq!(cm.free_pool(), pool);
        assert_eq!(cm.credits(FlowId(1)), credits);
        assert_eq!(cm.stats().stale_releases, 1);
        assert!(cm.conserved());
    }

    #[test]
    fn timely_release_pops_lease_and_returns_normally() {
        let mut cm = CreditManager::new(4);
        cm.enable_leases(Duration::nanos(100));
        cm.add_flows(&ids(&[1]));
        cm.set_now(Time(0));
        assert!(cm.try_consume(FlowId(1)));
        cm.set_now(Time(40));
        cm.release(FlowId(1), 1);
        assert_eq!(cm.live_leases(), 0);
        assert_eq!(cm.credits(FlowId(1)), 4);
        assert_eq!(cm.stats().stale_releases, 0);
        // Nothing left for the watchdog.
        cm.set_now(Time(500));
        assert_eq!(cm.expire_leases(), 0);
        assert!(cm.conserved());
    }

    #[test]
    fn partial_expiry_pops_only_old_grants() {
        let mut cm = CreditManager::new(4);
        cm.enable_leases(Duration::nanos(100));
        cm.add_flows(&ids(&[1]));
        cm.set_now(Time(0));
        assert!(cm.try_consume(FlowId(1)));
        cm.set_now(Time(80));
        assert!(cm.try_consume(FlowId(1)));
        cm.set_now(Time(120)); // first lease (expiry 100) is dead, second (180) alive
        assert_eq!(cm.expire_leases(), 1);
        assert_eq!(cm.live_leases(), 1);
        assert_eq!(cm.outstanding(), 1);
        // The live grant still releases normally.
        cm.release(FlowId(1), 1);
        assert_eq!(cm.outstanding(), 0);
        assert!(cm.conserved());
    }

    #[test]
    fn release_to_pool_consumes_leases_too() {
        let mut cm = CreditManager::new(4);
        cm.enable_leases(Duration::nanos(100));
        cm.add_flows(&ids(&[1]));
        cm.set_now(Time(0));
        assert!(cm.try_consume(FlowId(1)));
        cm.release_to_pool(FlowId(1), 1);
        assert_eq!(cm.live_leases(), 0);
        assert_eq!(cm.free_pool(), 1);
        // Watchdog finds nothing: no double return.
        cm.set_now(Time(500));
        assert_eq!(cm.expire_leases(), 0);
        assert!(cm.conserved());
    }

    #[test]
    fn leases_survive_flow_removal() {
        let mut cm = CreditManager::new(4);
        cm.enable_leases(Duration::nanos(50));
        cm.add_flows(&ids(&[1]));
        cm.set_now(Time(0));
        assert!(cm.try_consume(FlowId(1)));
        cm.remove_flow(FlowId(1));
        assert_eq!(cm.outstanding(), 1);
        // The in-flight grant's release was lost and the flow is gone:
        // only the watchdog can recover the credit.
        cm.set_now(Time(100));
        assert_eq!(cm.expire_leases(), 1);
        assert_eq!(cm.outstanding(), 0);
        assert_eq!(cm.free_pool(), 4);
        assert!(cm.conserved());
    }

    #[test]
    fn disarmed_leases_are_inert() {
        let mut cm = CreditManager::new(4);
        cm.add_flows(&ids(&[1]));
        assert!(!cm.leases_enabled());
        assert!(cm.try_consume(FlowId(1)));
        assert_eq!(cm.live_leases(), 0);
        cm.set_now(Time(1_000_000));
        assert_eq!(cm.expire_leases(), 0);
        cm.release(FlowId(1), 1);
        assert_eq!(cm.credits(FlowId(1)), 4);
        assert_eq!(cm.stats().stale_releases, 0);
        assert!(cm.conserved());
    }

    #[test]
    fn inject_and_withdraw_move_total_with_pool() {
        let mut cm = CreditManager::new(10);
        cm.add_flows(&ids(&[1])); // all 10 assigned
        assert_eq!(cm.free_pool(), 0);
        cm.inject_pool(5);
        assert_eq!(cm.total(), 15);
        assert_eq!(cm.free_pool(), 5);
        assert!(cm.conserved());
        // Only free credits can leave; assigned ones stay.
        assert_eq!(cm.withdraw_pool(100), 5);
        assert_eq!(cm.total(), 10);
        assert_eq!(cm.free_pool(), 0);
        assert_eq!(cm.withdraw_pool(1), 0);
        assert!(cm.conserved());
    }

    #[test]
    fn withdraw_never_touches_outstanding() {
        let mut cm = CreditManager::new(4);
        cm.add_flows(&ids(&[1]));
        assert!(cm.try_consume(FlowId(1)));
        let _ = cm.reclaim(FlowId(1)); // 3 to pool, 1 outstanding
        assert_eq!(cm.withdraw_pool(10), 3);
        assert_eq!(cm.total(), 1);
        assert_eq!(cm.outstanding(), 1);
        assert!(cm.conserved());
        // The in-flight credit still returns cleanly into the shrunk
        // partition.
        cm.release(FlowId(1), 1);
        assert_eq!(cm.outstanding(), 0);
        assert!(cm.conserved());
    }

    #[test]
    fn readding_existing_flow_is_noop() {
        let mut cm = CreditManager::new(100);
        cm.add_flows(&ids(&[1]));
        cm.add_flows(&ids(&[1]));
        assert_eq!(cm.credits(FlowId(1)), 100);
        assert_eq!(cm.flow_count(), 1);
        assert!(cm.conserved());
    }

    fn ledger(cm: &CreditManager, f: u32) -> Vec<(u32, u64)> {
        cm.flows
            .get(&FlowId(f))
            .map(|fc| fc.owed.iter().map(|&(j, o)| (j.0, o)).collect())
            .unwrap_or_default()
    }

    #[test]
    fn new_creditors_interleave_existing_ones() {
        let mut cm = CreditManager::new(3000);
        cm.add_flows(&ids(&[1]));
        for _ in 0..2900 {
            assert!(cm.try_consume(FlowId(1)));
        }
        // Flow 1 is short: it owes 1400 to flow 5, then 500 to flow 9
        // (flow 5, also short by then, owes flow 9 the other 400).
        cm.add_flows(&ids(&[5]));
        cm.add_flows(&ids(&[9]));
        assert_eq!(ledger(&cm, 1), vec![(5, 1400), (9, 500)]);
        assert_eq!(ledger(&cm, 5), vec![(9, 400)]);
        // Three newcomers whose ids fall around the existing creditors:
        // each short flow owes its shortfall split evenly, the first
        // newcomers in id order taking the remainder (flow 9 gives its
        // 100 credits and owes 400).
        cm.add_flows(&ids(&[11, 3, 7]));
        assert_eq!(
            ledger(&cm, 1),
            vec![(3, 167), (5, 1400), (7, 167), (9, 500), (11, 166)]
        );
        assert_eq!(
            ledger(&cm, 5),
            vec![(3, 167), (7, 167), (9, 400), (11, 166)]
        );
        assert_eq!(ledger(&cm, 9), vec![(3, 134), (7, 133), (11, 133)]);
        assert_eq!(cm.debt_of(FlowId(1)), 2400);
        assert!(cm.conserved());
    }

    /// The ledger insert `add_flows` made once per creditor before the
    /// merge: binary search, then add or insert.
    fn owe(owed: &mut Vec<(FlowId, u64)>, j: FlowId, amount: u64) {
        match owed.binary_search_by_key(&j, |&(c, _)| c) {
            Ok(i) => owed[i].1 += amount,
            Err(i) => owed.insert(i, (j, amount)),
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// Random ascending ledgers and creditor sets, overlapping or not:
        /// the merge leaves exactly the ledger that one insert per
        /// creditor leaves, equal creditors summed.
        #[test]
        fn merge_matches_one_insert_per_creditor(
            ledger_ids in prop::collection::vec(0u32..64, 0..24),
            amounts in prop::collection::vec(1u64..1000, 24),
            creditor_ids in prop::collection::vec(0u32..64, 1..16),
            per in 0u64..4,
            extra in 0usize..16,
        ) {
            let ascending = |mut v: Vec<u32>| {
                v.sort_unstable();
                v.dedup();
                v
            };
            let old: Vec<(FlowId, u64)> = ascending(ledger_ids)
                .into_iter()
                .zip(amounts)
                .map(|(j, o)| (FlowId(j), o))
                .collect();
            let creditors: Vec<FlowId> =
                ascending(creditor_ids).into_iter().map(FlowId).collect();
            // Every share must be positive: with `per == 0` only the first
            // `extra` creditors are owed.
            let extra = extra.min(creditors.len());
            let creditors = if per > 0 { &creditors[..] } else { &creditors[..extra] };
            let mut expected = old.clone();
            for (k, &j) in creditors.iter().enumerate() {
                owe(&mut expected, j, per + u64::from(k < extra));
            }
            let mut merged = old;
            owe_each(&mut merged, creditors, per, extra);
            prop_assert_eq!(merged, expected);
        }
    }
}
