//! RX queue identity and RSS flow-hash sharding.
//!
//! A multi-queue NIC spreads flows across N receive queues with a hash of
//! the flow identity (receive-side scaling). All packets of one flow hash
//! to one queue, so per-flow ordering is preserved within its shard while
//! distinct flows fan out across queues — the substrate CEIO §5 assumes
//! underneath its per-flow RMT rules, and what IOCA/A4-style per-queue
//! cache management needs to scale on multi-core receivers.

/// Identity of one RX queue (newtype so a queue index can never be
/// confused with a core index or a flow id at an API boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueueId(pub usize);

impl QueueId {
    /// Queue 0 — the only queue of a single-queue NIC.
    pub const ZERO: QueueId = QueueId(0);

    /// The queue's index into per-queue arrays.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for QueueId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// RSS: map a flow identity onto one of `num_queues` RX queues.
///
/// The hash is a splitmix64-style finalizer — cheap, stateless, and
/// avalanching, standing in for the Toeplitz hash real NICs use. The
/// properties the pipeline relies on:
///
/// * **deterministic** — the same flow always lands on the same queue, so
///   per-flow packet order is preserved within its shard;
/// * **degenerate at 1** — `num_queues <= 1` always yields queue 0, which
///   is what makes the single-queue pipeline bit-identical to the
///   pre-sharding monolith;
/// * **spreading** — nearby flow ids scatter across queues rather than
///   clumping (pinned by tests below).
#[must_use]
pub fn rss_queue(flow: u32, num_queues: usize) -> QueueId {
    if num_queues <= 1 {
        return QueueId::ZERO;
    }
    let mut x = u64::from(flow).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    QueueId((x % num_queues as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_queue_is_always_zero() {
        for f in 0..64 {
            assert_eq!(rss_queue(f, 1), QueueId::ZERO);
            assert_eq!(rss_queue(f, 0), QueueId::ZERO);
        }
    }

    #[test]
    fn hash_is_deterministic() {
        for f in 0..64 {
            assert_eq!(rss_queue(f, 4), rss_queue(f, 4));
        }
    }

    #[test]
    fn eight_flows_cover_four_queues() {
        // The standard contended workload runs 8 flows; RSS must actually
        // fan them out or the scaling experiment measures nothing.
        for n in [2usize, 4] {
            let mut seen = vec![false; n];
            for f in 0..8 {
                seen[rss_queue(f, n).index()] = true;
            }
            assert!(
                seen.iter().all(|&s| s),
                "8 flows must cover all {n} queues, got {seen:?}"
            );
        }
    }

    #[test]
    fn shard_is_in_range() {
        for n in 1..=16usize {
            for f in 0..256 {
                assert!(rss_queue(f, n).index() < n.max(1));
            }
        }
    }

    #[test]
    fn display_and_index_agree() {
        let q = QueueId(3);
        assert_eq!(q.to_string(), "3");
        assert_eq!(q.index(), 3);
    }
}
