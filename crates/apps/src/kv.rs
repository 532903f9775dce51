//! The eRPC-style key-value server (§6.1).
//!
//! "The server handles 1:1 get/put requests with a 1:4 key-value ratio
//! (e.g. 16 B key, 64 B value, resulting in a 144 B packet). We populate
//! 1,000 key-value entries and generate requests randomly from 8 client
//! threads."
//!
//! Requests are synthesized deterministically from packet identity (the
//! packet model carries no payload) and served against a presence bitmap
//! over the keyspace: one bit per key, set when the key holds a value.
//! That is all a request can observe. Values are never read, every value
//! is `value_bytes` long, and the handler's simulated CPU cost is
//! `handler_overhead`, not the host's own lookup, so a GET's response size
//! depends only on whether its key is present. A map of real byte values
//! would answer every request identically (DESIGN.md §21) while hashing
//! on the simulator's own hot path.
//!
//! eRPC's zero-copy optimization means RX buffers are handed to the
//! handler directly (`post_recv`, §5), so the profile reports zero copied
//! bytes — the property §6.4 credits for eRPC's near-line-rate results.

use ceio_cpu::{AppWork, Application};
use ceio_net::Packet;
use ceio_sim::Duration;

/// KV server parameters.
#[derive(Debug, Clone)]
pub struct KvConfig {
    /// Pre-populated entries.
    pub entries: u64,
    /// Key size in bytes.
    pub key_bytes: usize,
    /// Value size in bytes (1:4 key:value ratio by default).
    pub value_bytes: usize,
    /// Per-request handler compute, table operation included
    /// (request parse, response build, eRPC session/mempool bookkeeping).
    /// The 300 ns default puts one core's cache-hot capacity at ~3M req/s
    /// — the regime where LLC hit/miss state directly modulates
    /// throughput, as on the paper's testbed.
    pub handler_overhead: Duration,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            entries: 1_000,
            key_bytes: 16,
            value_bytes: 64,
            handler_overhead: Duration::nanos(300),
        }
    }
}

/// Operation statistics.
#[derive(Debug, Default, Clone)]
pub struct KvStats {
    /// GET requests served.
    pub gets: u64,
    /// GET requests that found the key.
    pub hits: u64,
    /// PUT requests served.
    pub puts: u64,
}

/// The key-value server application.
pub struct KvStore {
    cfg: KvConfig,
    /// Bit `k` is set when key `k` holds a value; the keyspace is
    /// `0..keyspace(cfg)`, covered by `ceil(keyspace / 64)` words.
    present: Vec<u64>,
    /// Keys that hold a value (the set bits of `present`).
    live: usize,
    stats: KvStats,
}

#[inline]
fn mix(x: u64) -> u64 {
    // SplitMix64 finalizer: cheap, deterministic request synthesis.
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Keys requests draw from: slightly more than the populated set, so some
/// GETs miss.
#[inline]
fn keyspace(cfg: &KvConfig) -> u64 {
    cfg.entries + cfg.entries / 8
}

impl KvStore {
    /// A server pre-populated with `cfg.entries` entries (keys
    /// `0..entries`).
    pub fn new(cfg: KvConfig) -> KvStore {
        let words = keyspace(&cfg).div_ceil(64) as usize;
        let mut present = vec![0u64; words];
        for k in 0..cfg.entries {
            present[(k / 64) as usize] |= 1 << (k % 64);
        }
        KvStore {
            live: cfg.entries as usize,
            cfg,
            present,
            stats: KvStats::default(),
        }
    }

    /// The request packet size implied by the configuration (key + value +
    /// 64 B of RPC header, e.g. 144 B for 16/64).
    pub fn request_bytes(cfg: &KvConfig) -> u64 {
        (cfg.key_bytes + cfg.value_bytes + 64) as u64
    }

    /// Read-only statistics.
    pub fn stats(&self) -> &KvStats {
        &self.stats
    }

    /// Keys currently holding a value.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no key holds a value.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl Application for KvStore {
    fn name(&self) -> &str {
        "erpc-kv"
    }

    fn process(&mut self, pkt: &Packet) -> AppWork {
        // Deterministic request synthesis: 1:1 get/put over a keyspace
        // slightly larger than the populated set (some gets miss).
        let h = mix(pkt.id.0);
        let key = h % keyspace(&self.cfg);
        let is_get = h & (1 << 40) == 0;
        let (word, bit) = ((key / 64) as usize, 1u64 << (key % 64));
        let response_bytes = if is_get {
            self.stats.gets += 1;
            if self.present[word] & bit != 0 {
                self.stats.hits += 1;
                self.cfg.value_bytes as u64 + 64
            } else {
                64 // not-found header
            }
        } else {
            self.stats.puts += 1;
            if self.present[word] & bit == 0 {
                self.present[word] |= bit;
                self.live += 1;
            }
            64 // ack
        };
        AppWork {
            cpu: self.cfg.handler_overhead,
            copy_bytes: 0, // zero-copy RX: buffers owned via post_recv (§5)
            response_bytes,
        }
    }

    fn zero_copy(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceio_net::{FlowId, PacketId};
    use ceio_sim::Time;

    fn pkt(id: u64) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            bytes: 144,
            msg_id: id,
            msg_seq: 0,
            msg_last: true,
            sent_at: Time::ZERO,
            arrived_nic: Time::ZERO,
            ecn: false,
        }
    }

    #[test]
    fn populated_at_construction() {
        let kv = KvStore::new(KvConfig::default());
        assert_eq!(kv.len(), 1_000);
    }

    #[test]
    fn request_size_matches_paper_example() {
        // 16 B key + 64 B value + header = 144 B.
        assert_eq!(KvStore::request_bytes(&KvConfig::default()), 144);
    }

    #[test]
    fn serves_roughly_balanced_get_put() {
        let mut kv = KvStore::new(KvConfig::default());
        for i in 0..10_000 {
            kv.process(&pkt(i));
        }
        let s = kv.stats();
        assert_eq!(s.gets + s.puts, 10_000);
        let ratio = s.gets as f64 / 10_000.0;
        assert!((0.45..0.55).contains(&ratio), "get ratio {ratio}");
        // Most gets hit the populated/put keyspace.
        assert!(s.hits as f64 / s.gets as f64 > 0.8);
    }

    #[test]
    fn zero_copy_profile() {
        let mut kv = KvStore::new(KvConfig::default());
        let w = kv.process(&pkt(1));
        assert_eq!(w.copy_bytes, 0);
        assert!(w.response_bytes >= 64);
        assert!(kv.zero_copy());
    }

    #[test]
    fn puts_grow_the_table_deterministically() {
        let run = || {
            let mut kv = KvStore::new(KvConfig::default());
            for i in 0..5_000 {
                kv.process(&pkt(i));
            }
            (kv.len(), kv.stats().hits)
        };
        assert_eq!(run(), run());
        assert!(run().0 >= 1_000);
    }
}
