//! Software-ring walkthrough: the §4.2 / Figure 7 example, step by step,
//! on [`SwRing`], the receive path every simulated flow runs.
//!
//! Two messages arrive while only four credits remain: packets #1–#4 take
//! the fast path, #17–#20 (the figure's buffer ids) land in on-NIC memory.
//! A driver poll returns what is already in host memory and overlaps the
//! DMA fetches of the rest; ordering is preserved across the path
//! transition without any per-packet sorting.
//!
//! ```sh
//! cargo run --release --example swring_walkthrough
//! ```

use ceio::host::{ReadyPkt, SlowPkt, SwRing};
use ceio::mem::BufferId;
use ceio::net::{FlowId, Packet, PacketId};
use ceio::sim::Time;

/// The packet carried in buffer `#buf`.
fn packet(buf: u64) -> Packet {
    Packet {
        id: PacketId(buf),
        flow: FlowId(0),
        bytes: 512,
        msg_id: 0,
        msg_seq: 0,
        msg_last: false,
        sent_at: Time::ZERO,
        arrived_nic: Time::ZERO,
        ecn: false,
    }
}

/// The packet with sequence `seq` lands in host memory.
fn land(ring: &mut SwRing, seq: u64, buf: u64, via_slow: bool) {
    let rp = ReadyPkt {
        pkt: packet(buf),
        buf: BufferId(buf),
        ready: Time::ZERO,
        via_slow,
    };
    assert!(!ring.retire(seq, rp), "no teardown: nothing is stale");
}

/// One non-blocking driver poll: deliver what is in order in host memory,
/// then issue a DMA fetch of up to 32 parked packets.
fn async_recv(ring: &mut SwRing, fetch: &mut Vec<SlowPkt>) -> Vec<u64> {
    let mut out = Vec::new();
    ring.take_deliverable(Time::ZERO, 32, &mut out);
    let issued = fetch.len();
    ring.take_fetch_batch(Time::ZERO, 32 - issued, fetch);
    let delivered = out.iter().map(|rp| rp.pkt.id.0).collect();
    println!("  delivered now: {delivered:?}");
    if fetch.len() > issued {
        println!(
            "  DMA fetch issued for {} slow packets (non-blocking)",
            fetch.len() - issued
        );
    }
    delivered
}

fn main() {
    // The fast HW ring holds 4 descriptors (= the 4 remaining credits).
    let mut ring = SwRing::new(4);
    let mut fetch = Vec::new();

    println!("-- message 1 arrives: 4 credits left, 6 packets --");
    for buf in [1, 2, 3, 4] {
        let seq = ring.reserve_fast().expect("fast ring has room");
        println!("  fast path  <- buffer #{buf} (seq {seq})");
        land(&mut ring, seq, buf, false);
    }
    for buf in [17, 18] {
        let seq = ring.park_slow(packet(buf), Time::ZERO);
        println!("  slow path  <- buffer #{buf} (seq {seq}, parked in on-NIC memory)");
    }

    println!("\n-- the driver polls --");
    assert_eq!(async_recv(&mut ring, &mut fetch), [1, 2, 3, 4]);

    println!("\n-- message 2 arrives while the fetch is in flight --");
    for buf in [19, 20] {
        let seq = ring.park_slow(packet(buf), Time::ZERO);
        println!("  slow path  <- buffer #{buf} (seq {seq})");
    }

    println!("\n-- the driver polls again: order is sacred --");
    assert!(async_recv(&mut ring, &mut fetch).is_empty());
    println!("  (nothing can overtake #17; its fetch is still in flight)");

    println!("\n-- the DMA read lands; the drain continues --");
    for sp in std::mem::take(&mut fetch) {
        land(&mut ring, sp.nic_seq, sp.pkt.id.0, true);
    }
    assert_eq!(async_recv(&mut ring, &mut fetch), [17, 18, 19, 20]);

    println!("\n-- drain finished; fast path re-enabled for buffers #5-#8 --");
    for buf in [5, 6, 7, 8] {
        let seq = ring.reserve_fast().expect("fast ring drained");
        land(&mut ring, seq, buf, false);
    }
    assert_eq!(async_recv(&mut ring, &mut fetch), [5, 6, 7, 8]);

    println!(
        "\nEvery packet was delivered in arrival order — {} total, 4 via the\n\
         slow path — with no reordering metadata (§4.2).",
        ring.base()
    );
}
