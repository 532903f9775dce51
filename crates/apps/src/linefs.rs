//! The LineFS-style distributed-file-system server (§6.1).
//!
//! "The client writes a 16 GB file to the server in different chunk sizes,
//! while the server performs replication and logging."
//!
//! A chunk arrives as one multi-packet message on a CPU-bypass (RDMA-style)
//! flow. Per packet the server copies the payload from the I/O buffer into
//! its page store (LineFS is *not* zero-copy — §6.4 measures ~10% residual
//! misses from exactly these copies); per completed chunk it appends a
//! journal record and forwards a replication copy. The chunk ledger is
//! real state: offsets and checksums are tracked so tests can verify the
//! file is assembled completely and in order.

use ceio_cpu::{AppWork, Application};
use ceio_net::Packet;
use ceio_sim::Duration;

/// DFS server parameters.
#[derive(Debug, Clone)]
pub struct LineFsConfig {
    /// Per-packet protocol handling compute (header parse, page lookup).
    pub per_packet: Duration,
    /// Per-chunk commit compute (journal append, replica post).
    pub per_chunk: Duration,
    /// Replication factor: each committed chunk is copied this many extra
    /// times (replication + logging both copy).
    pub replica_copies: u64,
}

impl Default for LineFsConfig {
    fn default() -> Self {
        LineFsConfig {
            per_packet: Duration::nanos(150),
            per_chunk: Duration::nanos(600),
            replica_copies: 2,
        }
    }
}

/// Server statistics / ledger.
#[derive(Debug, Default, Clone)]
pub struct LineFsStats {
    /// Payload bytes written into the page store.
    pub bytes_written: u64,
    /// Chunks committed (journal records).
    pub chunks_committed: u64,
    /// Out-of-order packets observed within a chunk (must stay 0 under the
    /// ordered `recv()` contract).
    pub out_of_order: u64,
    /// Rolling checksum of the assembled stream (order-sensitive).
    pub checksum: u64,
}

/// The DFS server application.
pub struct LineFs {
    cfg: LineFsConfig,
    stats: LineFsStats,
    current_msg: Option<u64>,
    expected_seq: u32,
}

impl LineFs {
    /// A fresh server.
    pub fn new(cfg: LineFsConfig) -> LineFs {
        LineFs {
            cfg,
            stats: LineFsStats::default(),
            current_msg: None,
            expected_seq: 0,
        }
    }

    /// Read-only statistics.
    pub fn stats(&self) -> &LineFsStats {
        &self.stats
    }
}

impl Application for LineFs {
    fn name(&self) -> &str {
        "linefs"
    }

    fn process(&mut self, pkt: &Packet) -> AppWork {
        // Order verification: within a chunk, sequence must be contiguous.
        match self.current_msg {
            Some(m) if m == pkt.msg_id => {
                if pkt.msg_seq != self.expected_seq {
                    self.stats.out_of_order += 1;
                }
            }
            _ => {
                if pkt.msg_seq != 0 {
                    self.stats.out_of_order += 1;
                }
                self.current_msg = Some(pkt.msg_id);
            }
        }
        self.expected_seq = pkt.msg_seq + 1;

        // Order-sensitive rolling checksum over (msg, seq, len).
        self.stats.checksum = self
            .stats
            .checksum
            .rotate_left(7)
            .wrapping_add(pkt.msg_id.wrapping_mul(31) ^ pkt.msg_seq as u64 ^ pkt.bytes);
        self.stats.bytes_written += pkt.bytes;

        // Copy into the page store; on the chunk tail, journal + replicate.
        let mut cpu = self.cfg.per_packet;
        let mut copy_bytes = pkt.bytes;
        let mut response_bytes = 0;
        if pkt.msg_last {
            self.stats.chunks_committed += 1;
            self.current_msg = None;
            self.expected_seq = 0;
            cpu += self.cfg.per_chunk;
            copy_bytes += pkt.bytes * self.cfg.replica_copies;
            response_bytes = 64; // commit ack
        }
        AppWork {
            cpu,
            copy_bytes,
            response_bytes,
        }
    }

    fn zero_copy(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceio_net::{FlowId, PacketId};
    use ceio_sim::Time;

    fn pkt(id: u64, msg_id: u64, msg_seq: u32, msg_last: bool) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            bytes: 2048,
            msg_id,
            msg_seq,
            msg_last,
            sent_at: Time::ZERO,
            arrived_nic: Time::ZERO,
            ecn: false,
        }
    }

    #[test]
    fn assembles_chunks_in_order() {
        let mut fs = LineFs::new(LineFsConfig::default());
        let mut id = 0;
        for msg in 0..10u64 {
            for seq in 0..4u32 {
                fs.process(&pkt(id, msg, seq, seq == 3));
                id += 1;
            }
        }
        let s = fs.stats();
        assert_eq!(s.chunks_committed, 10);
        assert_eq!(s.out_of_order, 0);
        assert_eq!(s.bytes_written, 40 * 2048);
    }

    #[test]
    fn detects_reordering() {
        let mut fs = LineFs::new(LineFsConfig::default());
        fs.process(&pkt(0, 0, 0, false));
        fs.process(&pkt(1, 0, 2, false)); // skipped seq 1
        assert_eq!(fs.stats().out_of_order, 1);
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let sum = |order: &[(u32, bool)]| {
            let mut fs = LineFs::new(LineFsConfig::default());
            for (i, &(seq, last)) in order.iter().enumerate() {
                fs.process(&pkt(i as u64, 0, seq, last));
            }
            fs.stats().checksum
        };
        assert_ne!(sum(&[(0, false), (1, true)]), sum(&[(1, false), (0, true)]));
    }

    #[test]
    fn copy_profile_includes_replication_on_tail() {
        let mut fs = LineFs::new(LineFsConfig::default());
        let body = fs.process(&pkt(0, 0, 0, false));
        assert_eq!(body.copy_bytes, 2048);
        assert_eq!(body.response_bytes, 0);
        let tail = fs.process(&pkt(1, 0, 1, true));
        assert_eq!(
            tail.copy_bytes,
            2048 * 3,
            "payload + replication + log copies"
        );
        assert_eq!(tail.response_bytes, 64);
        assert!(tail.cpu > body.cpu);
        assert!(!fs.zero_copy());
    }
}
