//! Trace-driven buffer-cache simulation — the paper's §4.8.
//!
//! Three experiments, reimplemented from the paper's description:
//!
//! * [`compute`] — per-compute-node caches of one-block (4 KB) read-only
//!   buffers with LRU replacement; per-job hit-rate distributions for 1,
//!   10, and 50 buffers (Figure 8);
//! * [`ionode`] — I/O-node caches of 4 KB buffers under LRU or FIFO (and
//!   the paper's §5 interprocess-locality policy), swept over the number
//!   of I/O nodes and total buffer count, with the file striped
//!   round-robin at one-block granularity (Figure 9);
//! * [`combined`] — both at once: a single buffer per compute node plus a
//!   50-buffer cache at each of 10 I/O nodes (the "only a 3 % reduction"
//!   result);
//!
//! plus [`prep`], which indexes sessions by class so the compute-node
//! simulation can restrict itself to read-only files, exactly as the
//! paper did. The same pass prepares the request stream the I/O-node
//! simulations replay: one 24-byte entry per read or write, its blocks
//! renumbered densely, so each Figure 9 cell runs on plain per-block
//! arrays (the policy banks, one per replacement policy, live in a private
//! `bank` module) instead of hashing `(file, block)` keys.
//!
//! None of these results is calibrated: the workload generator never saw a
//! hit rate. Whatever comes out is a *prediction* from the synthetic
//! workload's locality structure.

// Determinism rules; the disallowed types and methods live in clippy.toml.
#![forbid(unsafe_code)] // CH006
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)] // CH009
#![cfg_attr(
    not(test),
    deny(
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::float_cmp
    )
)] // CH008

mod bank;
pub mod combined;
pub mod compute;
pub mod ionode;
pub mod prefetch;
pub mod prep;
pub mod stackdist;
pub mod writeback;

pub use combined::{combined_simulation, CombinedResult};
pub use compute::{compute_cache_sim, ComputeCacheResult};
pub use ionode::{io_cache_sim, sweep, IoCacheResult, Policy};
pub use prefetch::{prefetch_sim, PrefetchResult, Prefetcher};
pub use prep::SessionIndex;
pub use stackdist::{lru_profile, StackDistanceProfile, StackDistances};
pub use writeback::{writeback_sim, FlushPolicy, WritebackResult};
