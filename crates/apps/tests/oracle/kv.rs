//! The KV store exactly as it was before the presence bitmap: a
//! `HashMap` from key to value bytes, pre-populated with `entries` shared
//! values, with every PUT storing one of 256 shared fill-byte values.
//!
//! Test-only reference model. `kv_reference.rs` drives packet streams
//! through it and through `ceio_apps::KvStore` and requires identical
//! observable behaviour. Apart from this header, the imports and `Arc<[u8]>`
//! in place of the `bytes` stand-in's `Bytes` (the stand-in's own
//! representation), the code is unchanged; do not optimise it.

#![allow(dead_code)]

use ceio_apps::kv::{KvConfig, KvStats};
use ceio_cpu::{AppWork, Application};
use ceio_net::Packet;
use std::collections::HashMap;
use std::sync::Arc;

/// The key-value server application.
pub struct KvStore {
    cfg: KvConfig,
    table: HashMap<u64, Arc<[u8]>>,
    /// Every value a PUT can write, by fill byte: a PUT stores a shared
    /// handle instead of allocating its bytes.
    put_values: Vec<Arc<[u8]>>,
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

impl KvStore {
    /// A server pre-populated with `cfg.entries` entries.
    pub fn new(cfg: KvConfig) -> KvStore {
        let mut table = HashMap::with_capacity(cfg.entries as usize);
        let value: Arc<[u8]> = Arc::from(vec![0xA5u8; cfg.value_bytes]);
        for k in 0..cfg.entries {
            table.insert(k, value.clone());
        }
        let put_values = (0..=u8::MAX)
            .map(|b| Arc::from(vec![b; cfg.value_bytes]))
            .collect();
        KvStore {
            cfg,
            table,
            put_values,
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

    /// Current table size.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
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
        let key = h % (self.cfg.entries + self.cfg.entries / 8);
        let is_get = h & (1 << 40) == 0;
        let response_bytes = if is_get {
            self.stats.gets += 1;
            match self.table.get(&key) {
                Some(v) => {
                    self.stats.hits += 1;
                    v.len() as u64 + 64
                }
                None => 64, // not-found header
            }
        } else {
            self.stats.puts += 1;
            let value = self.put_values[(h & 0xFF) as usize].clone();
            self.table.insert(key, value);
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
