//! Discrete-event simulator of the Intel iPSC/860 multiprocessor.
//!
//! The iPSC/860 traced by the CHARISMA project (Kotz & Nieuwejaar, SC '94)
//! was a distributed-memory, message-passing MIMD machine: 128 compute nodes
//! (Intel i860, 8 MB each) connected by a 7-dimensional hypercube, 10 I/O
//! nodes (Intel i386, 4 MB, one 760 MB SCSI disk each) each attached to a
//! single compute node rather than to the hypercube directly, and one
//! service node with the Ethernet connection to the host.
//!
//! This crate models the pieces of that machine that shaped the traced
//! workload:
//!
//! * [`topology`] — the hypercube interconnect and e-cube routing;
//! * [`alloc`] — subcube (buddy) allocation of compute nodes, which is why
//!   jobs only ever use a power-of-two number of nodes (paper, Figure 2);
//! * [`clock`] — per-node clocks that are synchronized at boot and then
//!   drift, which is why the paper's global event ordering is approximate;
//! * [`message`] — message packetization into 4 KB packets and a simple
//!   latency model;
//! * [`engine`] — a generic discrete-event queue used to interleave the
//!   per-node programs of concurrently running jobs;
//! * [`machine`] — the machine configuration tying it all together;
//! * [`par`] — the scoped-worker fan-out every parallel stage uses, with
//!   results in item order whatever the schedule;
//! * [`faults`] — deterministic chaos: a seeded [`FaultPlan`] injecting
//!   disk errors, message delay/drop/duplication, I/O-node stalls, and
//!   clock jumps, with outcomes independent of worker count.

// Determinism rules; the disallowed types and methods live in clippy.toml.
#![forbid(unsafe_code)] // CH006
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)] // CH009
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // CH003
#![cfg_attr(
    not(test),
    deny(
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::float_cmp
    )
)] // CH008

pub mod alloc;
pub mod clock;
pub mod engine;
pub mod faults;
pub mod invariant;
pub mod machine;
pub mod message;
pub mod par;
pub mod time;
pub mod topology;

pub use alloc::SubcubeAllocator;
pub use clock::DriftClock;
pub use engine::{EventQueue, QueueMetrics};
pub use faults::{FaultMetrics, FaultPlan, FaultRng, IoNodeDown, NetFaultState, RetryPolicy};
pub use machine::{IoNodeId, Machine, MachineConfig, MachineMetrics, NodeId};
pub use message::{Message, NetworkModel, PACKET_BYTES};
pub use time::{round_u64, Duration, SimTime};
pub use topology::Hypercube;
