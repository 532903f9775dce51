//! The RMT steering table exactly as it was before the `FlowMap` layout:
//! a `BTreeMap` from a generic ordered key to its rule.
//!
//! Test-only reference model. `rmt_reference.rs` drives random operation
//! sequences through it and through `ceio_nic::RmtEngine` and requires
//! identical observable behaviour. Apart from this header and the imports
//! (the unchanged `RmtStats` is the crate's own), the code is unchanged;
//! do not optimise it.

#![allow(dead_code)]

use ceio_nic::rmt::{RmtStats, SteerAction};
use std::collections::BTreeMap;

/// Per-rule state.
#[derive(Debug, Clone)]
struct Rule {
    action: SteerAction,
    hits: u64,
    hits_at_last_poll: u64,
}

/// The match-action steering table, keyed by flow identifier `K`.
///
/// Keys are ordered (`BTreeMap`), so every iteration over installed rules
/// is deterministic — the simulation's replay guarantee must not depend on
/// a hash map's per-process iteration order.
#[derive(Debug)]
pub struct RmtEngine<K> {
    rules: BTreeMap<K, Rule>,
    default_action: SteerAction,
    stats: RmtStats,
}

impl<K: Ord + Clone> RmtEngine<K> {
    /// An empty table with the given default action for unmatched packets.
    pub fn new(default_action: SteerAction) -> RmtEngine<K> {
        RmtEngine {
            rules: BTreeMap::new(),
            default_action,
            stats: RmtStats::default(),
        }
    }

    /// Install (or replace) the rule for `key`.
    pub fn install(&mut self, key: K, action: SteerAction) {
        self.rules.insert(
            key,
            Rule {
                action,
                hits: 0,
                hits_at_last_poll: 0,
            },
        );
    }

    /// Remove the rule for `key`; returns whether one existed.
    pub fn remove(&mut self, key: &K) -> bool {
        self.rules.remove(key).is_some()
    }

    /// Rewrite the action of an existing rule. Returns `false` if absent.
    pub fn set_action(&mut self, key: &K, action: SteerAction) -> bool {
        match self.rules.get_mut(key) {
            Some(r) => {
                match (r.action, action) {
                    (
                        SteerAction::FastPath { queue: from },
                        SteerAction::FastPath { queue: to },
                    ) if from != to => self.stats.rewrites_queue_move += 1,
                    (SteerAction::FastPath { .. }, SteerAction::FastPath { .. }) => {}
                    (SteerAction::FastPath { .. }, _) => self.stats.rewrites_to_slow += 1,
                    (_, SteerAction::FastPath { .. }) => self.stats.rewrites_to_fast += 1,
                    _ => {}
                }
                r.action = action;
                self.stats.updates += 1;
                true
            }
            None => false,
        }
    }

    /// Current action of a rule, if installed (no hit counting).
    pub fn action(&self, key: &K) -> Option<SteerAction> {
        self.rules.get(key).map(|r| r.action)
    }

    /// Steer one packet: returns the matched rule's action (incrementing
    /// its hit counter) or the default action.
    pub fn steer(&mut self, key: &K) -> SteerAction {
        match self.rules.get_mut(key) {
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
    pub fn hits(&self, key: &K) -> u64 {
        self.rules.get(key).map(|r| r.hits).unwrap_or(0)
    }

    /// Hits since the previous poll of this rule (the counter delta the
    /// flow controller consumes each polling interval).
    pub fn poll_hits(&mut self, key: &K) -> u64 {
        match self.rules.get_mut(key) {
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

    /// Iterate over installed keys in ascending key order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.rules.keys()
    }
}
