//! Message passing and packetization.
//!
//! "Since large messages on the iPSC are broken into 4 KB blocks …"
//! (paper §3.1). Every message larger than one packet pays the per-packet
//! overhead again, which is one of the reasons the tracing instrumentation
//! buffered event records into 4 KB blocks before sending them, and one of
//! the costs the paper's recommended strided interface would avoid.

use crate::time::{round_u64, Duration};

/// The iPSC packet size: large messages are split into blocks of this size.
pub const PACKET_BYTES: u64 = 4096;

/// A message between two nodes of the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    /// Source compute-node address.
    pub src: usize,
    /// Destination compute-node address.
    pub dst: usize,
    /// Payload length in bytes.
    pub bytes: u64,
}

impl Message {
    /// Number of 4 KB packets this message occupies (minimum 1: even an
    /// empty message sends a header packet).
    pub fn packets(&self) -> u64 {
        self.bytes.div_ceil(PACKET_BYTES).max(1)
    }
}

/// First-order latency model for the hypercube network.
///
/// Latency of a message over `h` hops:
/// `startup + h * per_hop + packets * per_packet + bytes * per_byte`.
///
/// Defaults approximate published iPSC/860 measurements: ~75 µs software
/// startup, ~11 µs per hop for the wormhole router, and ~2.8 MB/s per-link
/// sustained bandwidth (~0.36 µs/byte).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Fixed software send/receive overhead per message, µs.
    pub startup_us: f64,
    /// Added latency per network hop, µs.
    pub per_hop_us: f64,
    /// Added overhead per 4 KB packet, µs.
    pub per_packet_us: f64,
    /// Transfer time per payload byte, µs.
    pub per_byte_us: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            startup_us: 75.0,
            per_hop_us: 11.0,
            per_packet_us: 15.0,
            per_byte_us: 0.36,
        }
    }
}

impl NetworkModel {
    /// End-to-end latency of `msg` over `hops` network hops.
    pub fn latency(&self, msg: &Message, hops: u32) -> Duration {
        let us = self.startup_us
            + self.per_hop_us * f64::from(hops)
            + self.per_packet_us * msg.packets() as f64
            + self.per_byte_us * msg.bytes as f64;
        Duration::from_micros(round_u64(us).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_counts() {
        let m = |bytes| Message {
            src: 0,
            dst: 1,
            bytes,
        };
        assert_eq!(m(0).packets(), 1);
        assert_eq!(m(1).packets(), 1);
        assert_eq!(m(4096).packets(), 1);
        assert_eq!(m(4097).packets(), 2);
        assert_eq!(m(1 << 20).packets(), 256);
    }

    #[test]
    fn latency_monotone_in_size_and_hops() {
        let net = NetworkModel::default();
        let small = Message {
            src: 0,
            dst: 1,
            bytes: 100,
        };
        let big = Message {
            src: 0,
            dst: 1,
            bytes: 100_000,
        };
        assert!(net.latency(&small, 1) < net.latency(&big, 1));
        assert!(net.latency(&small, 1) < net.latency(&small, 7));
    }

    #[test]
    fn small_messages_dominated_by_startup() {
        // The paper's observation: small requests perform poorly because
        // per-message overhead dominates. An 80-byte request should cost
        // nearly as much as a 4000-byte one.
        let net = NetworkModel::default();
        let tiny = net.latency(
            &Message {
                src: 0,
                dst: 1,
                bytes: 80,
            },
            3,
        );
        let block = net.latency(
            &Message {
                src: 0,
                dst: 1,
                bytes: 4000,
            },
            3,
        );
        let ratio = block.as_micros() as f64 / tiny.as_micros() as f64;
        assert!(ratio < 15.0, "50x more data must cost < 15x: ratio {ratio}");
    }

    #[test]
    fn latency_is_at_least_one_microsecond() {
        let net = NetworkModel {
            startup_us: 0.0,
            per_hop_us: 0.0,
            per_packet_us: 0.0,
            per_byte_us: 0.0,
        };
        let m = Message {
            src: 0,
            dst: 0,
            bytes: 0,
        };
        assert_eq!(net.latency(&m, 0), Duration::from_micros(1));
    }
}
