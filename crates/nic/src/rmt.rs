//! The reconfigurable match-action (RMT) flow-steering engine.
//!
//! CEIO's flow controller offloads one steering rule per flow at connection
//! establishment (§4.1, Fig. 6). The rule initially directs packets to the
//! fast path (legacy DMA); when the flow's credits exhaust, the controller
//! rewrites the rule's action to divert packets into on-NIC memory. The
//! engine exposes per-rule hit counters, which the controller polls to track
//! credit consumption — exactly the paper's control loop.

use crate::queue::QueueId;
use ceio_net::{FlowId, FlowMap};

/// Where the RMT engine steers a matched packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteerAction {
    /// Legacy I/O: DMA to the host ring of queue `queue`.
    FastPath {
        /// Destination RX queue.
        queue: QueueId,
    },
    /// Elastic buffering: DMA into on-NIC memory (CEIO slow path).
    SlowPath,
    /// Drop the packet (no rule / admission refused).
    Drop,
}

/// Per-rule state.
#[derive(Debug, Clone)]
struct Rule {
    action: SteerAction,
    hits: u64,
    hits_at_last_poll: u64,
}

/// Engine statistics.
#[derive(Debug, Default, Clone)]
pub struct RmtStats {
    /// Lookups that matched a rule.
    pub matched: u64,
    /// Lookups that fell through to the default action.
    pub defaulted: u64,
    /// Rule-action rewrites performed.
    pub updates: u64,
    /// Rewrites that left the fast path (fast → slow/drop).
    pub rewrites_to_slow: u64,
    /// Rewrites that restored the fast path (slow/drop → fast).
    pub rewrites_to_fast: u64,
    /// Fast → fast rewrites, each of which moves the flow to a different
    /// RX queue (RSS re-steer).
    pub rewrites_queue_move: u64,
}

/// The match-action steering table, one rule per flow.
///
/// Rules live in a [`FlowMap`], a slot vector indexed by flow id, so
/// `steer` finds a flow's rule with one bounds check. The map iterates in
/// ascending id order, so every sweep over installed rules is
/// deterministic — the simulation's replay guarantee must not depend on a
/// hash map's per-process iteration order.
#[derive(Debug)]
pub struct RmtEngine {
    rules: FlowMap<Rule>,
    default_action: SteerAction,
    stats: RmtStats,
}

impl RmtEngine {
    /// An empty table with the given default action for unmatched packets.
    pub fn new(default_action: SteerAction) -> RmtEngine {
        RmtEngine {
            rules: FlowMap::new(),
            default_action,
            stats: RmtStats::default(),
        }
    }

    /// Install (or replace) the rule for `flow`.
    pub fn install(&mut self, flow: FlowId, action: SteerAction) {
        self.rules.insert(
            flow,
            Rule {
                action,
                hits: 0,
                hits_at_last_poll: 0,
            },
        );
    }

    /// Remove the rule for `flow`; returns whether one existed.
    pub fn remove(&mut self, flow: &FlowId) -> bool {
        self.rules.remove(flow).is_some()
    }

    /// Rewrite the rule of `flow` to `action` if it steers elsewhere.
    /// Returns the action it replaced, or `None` when no rule is installed
    /// or the rule already steers to `action` (then nothing is rewritten
    /// or counted).
    pub fn set_action(&mut self, flow: &FlowId, action: SteerAction) -> Option<SteerAction> {
        let r = self.rules.get_mut(flow)?;
        let prev = r.action;
        if prev == action {
            return None;
        }
        match (prev, action) {
            (SteerAction::FastPath { .. }, SteerAction::FastPath { .. }) => {
                self.stats.rewrites_queue_move += 1
            }
            (SteerAction::FastPath { .. }, _) => self.stats.rewrites_to_slow += 1,
            (_, SteerAction::FastPath { .. }) => self.stats.rewrites_to_fast += 1,
            _ => {}
        }
        r.action = action;
        self.stats.updates += 1;
        Some(prev)
    }

    /// Current action of a rule, if installed (no hit counting).
    pub fn action(&self, flow: &FlowId) -> Option<SteerAction> {
        self.rules.get(flow).map(|r| r.action)
    }

    /// Steer one packet: returns the matched rule's action (incrementing
    /// its hit counter) or the default action.
    #[inline]
    pub fn steer(&mut self, flow: &FlowId) -> SteerAction {
        match self.rules.get_mut(flow) {
            Some(r) => {
                r.hits += 1;
                self.stats.matched += 1;
                r.action
            }
            None => {
                self.stats.defaulted += 1;
                self.default_action
            }
        }
    }

    /// Lifetime hit count of a rule.
    pub fn hits(&self, flow: &FlowId) -> u64 {
        self.rules.get(flow).map(|r| r.hits).unwrap_or(0)
    }

    /// Hits since the previous poll of this rule (the counter delta the
    /// flow controller consumes each polling interval).
    pub fn poll_hits(&mut self, flow: &FlowId) -> u64 {
        match self.rules.get_mut(flow) {
            Some(r) => {
                let d = r.hits - r.hits_at_last_poll;
                r.hits_at_last_poll = r.hits;
                d
            }
            None => 0,
        }
    }

    /// Number of installed rules.
    #[inline]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Read-only statistics.
    #[inline]
    pub fn stats(&self) -> &RmtStats {
        &self.stats
    }

    /// Installed flows in ascending id order.
    pub fn keys(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.rules.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F1: FlowId = FlowId(1);
    const F2: FlowId = FlowId(2);
    const F9: FlowId = FlowId(9);

    fn fast(queue: usize) -> SteerAction {
        SteerAction::FastPath {
            queue: QueueId(queue),
        }
    }

    #[test]
    fn steer_matches_installed_rule() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(F1, fast(3));
        assert_eq!(rmt.steer(&F1), fast(3));
        assert_eq!(rmt.steer(&F2), SteerAction::Drop);
        assert_eq!(rmt.stats().matched, 1);
        assert_eq!(rmt.stats().defaulted, 1);
    }

    #[test]
    fn set_action_rewrites_in_place() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(F1, fast(0));
        assert_eq!(rmt.set_action(&F1, SteerAction::SlowPath), Some(fast(0)));
        assert_eq!(rmt.steer(&F1), SteerAction::SlowPath);
        assert_eq!(rmt.set_action(&F9, SteerAction::SlowPath), None, "no rule");
        assert_eq!(
            rmt.set_action(&F1, SteerAction::SlowPath),
            None,
            "same action"
        );
        assert_eq!(rmt.action(&F1), Some(SteerAction::SlowPath));
        assert_eq!(rmt.stats().updates, 1);
    }

    #[test]
    fn rewrite_direction_counters() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(F1, fast(0));
        rmt.set_action(&F1, SteerAction::SlowPath);
        rmt.set_action(&F1, fast(1));
        // Fast→fast queue change is neither direction: it is a queue move.
        rmt.set_action(&F1, fast(2));
        assert_eq!(rmt.stats().rewrites_to_slow, 1);
        assert_eq!(rmt.stats().rewrites_to_fast, 1);
        assert_eq!(rmt.stats().rewrites_queue_move, 1);
        assert_eq!(rmt.stats().updates, 3);
    }

    #[test]
    fn queue_move_accounting() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(F1, fast(0));
        // A same-queue fast→fast rewrite rewrites nothing: no update,
        // no move.
        assert_eq!(rmt.set_action(&F1, fast(0)), None);
        assert_eq!(rmt.stats().rewrites_queue_move, 0);
        assert_eq!(rmt.stats().updates, 0);
        // Distinct-queue fast→fast rewrites count, each time.
        rmt.set_action(&F1, fast(2));
        rmt.set_action(&F1, fast(1));
        assert_eq!(rmt.stats().rewrites_queue_move, 2);
        // The rule keeps steering to the latest queue.
        assert_eq!(rmt.steer(&F1), fast(1));
        // Leaving and re-entering the fast path is directional traffic,
        // not a move — even when the queue differs across the detour.
        rmt.set_action(&F1, SteerAction::SlowPath);
        rmt.set_action(&F1, fast(3));
        assert_eq!(rmt.stats().rewrites_queue_move, 2);
        assert_eq!(rmt.stats().rewrites_to_slow, 1);
        assert_eq!(rmt.stats().rewrites_to_fast, 1);
        // Slow → drop → slow never touches any fast counter.
        rmt.set_action(&F1, SteerAction::Drop);
        rmt.set_action(&F1, SteerAction::SlowPath);
        assert_eq!(rmt.stats().rewrites_to_slow, 2); // fast(3) → Drop above
        assert_eq!(rmt.stats().rewrites_to_fast, 1);
        assert_eq!(rmt.stats().rewrites_queue_move, 2);
        assert_eq!(rmt.stats().updates, 6);
    }

    #[test]
    fn hit_counters_and_poll_deltas() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(F1, SteerAction::SlowPath);
        for _ in 0..5 {
            rmt.steer(&F1);
        }
        assert_eq!(rmt.hits(&F1), 5);
        assert_eq!(rmt.poll_hits(&F1), 5);
        rmt.steer(&F1);
        assert_eq!(rmt.poll_hits(&F1), 1);
        assert_eq!(rmt.poll_hits(&F1), 0);
        assert_eq!(rmt.hits(&F1), 6);
    }

    #[test]
    fn remove_uninstalls() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(F1, SteerAction::SlowPath);
        assert!(rmt.remove(&F1));
        assert!(!rmt.remove(&F1));
        assert_eq!(rmt.steer(&F1), SteerAction::Drop);
        assert!(rmt.is_empty());
    }

    #[test]
    fn keys_ascend_whatever_the_install_order() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        for id in [9u32, 2, 5, 0] {
            rmt.install(FlowId(id), SteerAction::SlowPath);
        }
        rmt.remove(&FlowId(5));
        assert_eq!(rmt.keys().collect::<Vec<_>>(), [0, 2, 9].map(FlowId));
        assert_eq!(rmt.len(), 3);
    }

    #[test]
    fn reinstall_resets_counters() {
        let mut rmt = RmtEngine::new(SteerAction::Drop);
        rmt.install(F1, SteerAction::SlowPath);
        rmt.steer(&F1);
        rmt.install(F1, fast(0));
        assert_eq!(rmt.hits(&F1), 0);
    }
}
