//! `KvStore` against the hash map of values it replaced.
//!
//! The presence bitmap is a pure re-representation: for any configuration
//! and any packet stream the new store must answer like the reference in
//! `oracle/` — the same `AppWork` for every request, the same `KvStats`
//! after every request, and the same table size. Small keyspaces make
//! PUTs fill the table and GETs flip from misses to hits within one case;
//! the word boundaries of the bitmap (keyspaces around multiples of 64)
//! fall inside the configuration range.

mod oracle;

use ceio_apps::kv::{KvConfig, KvStats};
use ceio_apps::KvStore;
use ceio_cpu::Application;
use ceio_net::{FlowId, Packet, PacketId};
use ceio_sim::{Duration, Time};
use proptest::prelude::*;

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

fn stats_fields(s: &KvStats) -> [u64; 3] {
    [s.gets, s.hits, s.puts]
}

fn config(entries: u64, key_bytes: usize, value_bytes: usize, overhead_ns: u64) -> KvConfig {
    KvConfig {
        entries,
        key_bytes,
        value_bytes,
        handler_overhead: Duration::nanos(overhead_ns),
    }
}

/// Every observable of both stores must agree.
fn assert_same(new: &KvStore, old: &oracle::kv::KvStore, id: u64) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        stats_fields(new.stats()),
        stats_fields(old.stats()),
        "stats after packet {}",
        id
    );
    prop_assert_eq!(new.len(), old.len(), "len after packet {}", id);
    prop_assert_eq!(
        new.is_empty(),
        old.is_empty(),
        "is_empty after packet {}",
        id
    );
    Ok(())
}

/// Serve one packet on both stores and compare the answer and the state.
fn step(new: &mut KvStore, old: &mut oracle::kv::KvStore, id: u64) -> Result<(), TestCaseError> {
    let p = pkt(id);
    prop_assert_eq!(new.process(&p), old.process(&p), "work of packet {}", id);
    assert_same(new, old, id)
}

fn both(cfg: &KvConfig) -> Result<(KvStore, oracle::kv::KvStore), TestCaseError> {
    let new = KvStore::new(cfg.clone());
    let old = oracle::kv::KvStore::new(cfg.clone());
    prop_assert_eq!(new.name(), old.name());
    prop_assert_eq!(new.zero_copy(), old.zero_copy());
    prop_assert_eq!(
        KvStore::request_bytes(cfg),
        oracle::kv::KvStore::request_bytes(cfg)
    );
    assert_same(&new, &old, 0)?;
    Ok((new, old))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary configurations and packet ids: identical answers request
    /// by request.
    #[test]
    fn kv_matches_reference_model(
        entries in 1u64..300,
        key_bytes in 1usize..64,
        value_bytes in 0usize..2048,
        overhead_ns in 0u64..1000,
        ids in prop::collection::vec(any::<u64>(), 1..400)
    ) {
        let cfg = config(entries, key_bytes, value_bytes, overhead_ns);
        let (mut new, mut old) = both(&cfg)?;
        for &id in &ids {
            step(&mut new, &mut old, id)?;
        }
    }

    /// The host's own pattern: consecutive packet ids from one start, long
    /// enough for PUTs to populate the whole keyspace.
    #[test]
    fn kv_matches_reference_over_consecutive_ids(
        entries in 1u64..200,
        value_bytes in 0usize..256,
        first in any::<u32>(),
        n in 200u64..3000,
    ) {
        let cfg = config(entries, 16, value_bytes, 300);
        let (mut new, mut old) = both(&cfg)?;
        for id in first as u64..first as u64 + n {
            step(&mut new, &mut old, id)?;
        }
    }
}

/// The paper's configuration (1 000 entries, 16 B keys, 64 B values) over
/// a stream long enough to fill all 1 125 keys.
#[test]
fn kv_matches_reference_on_the_paper_configuration() {
    let cfg = KvConfig::default();
    let mut new = KvStore::new(cfg.clone());
    let mut old = oracle::kv::KvStore::new(cfg);
    for id in 0..50_000 {
        let p = pkt(id);
        assert_eq!(new.process(&p), old.process(&p), "work of packet {id}");
    }
    assert_eq!(stats_fields(new.stats()), stats_fields(old.stats()));
    assert_eq!(new.len(), old.len());
    assert_eq!(new.len(), 1_125, "PUTs fill the whole keyspace");
}
