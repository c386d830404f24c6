//! Trace-driven buffer-cache simulation — the paper's §4.8.
//!
//! Three experiments, reimplemented from the paper's description:
//!
//! * [`compute`] — per-compute-node caches of one-block (4 KB) read-only
//!   buffers with LRU replacement; per-job hit-rate distributions for 1,
//!   10, and 50 buffers (Figure 8);
//! * [`ionode`] — I/O-node caches of 4 KB buffers under LRU or FIFO,
//!   swept over the number of I/O nodes and total buffer count, with the
//!   file striped round-robin at one-block granularity (Figure 9);
//! * [`combined`] — both at once: a single buffer per compute node plus a
//!   50-buffer cache at each of 10 I/O nodes (the "only a 3 % reduction"
//!   result);
//!
//! plus [`prep`], which indexes sessions by class so the compute-node
//! simulation can restrict itself to read-only files, exactly as the
//! paper did.
//!
//! None of these results is calibrated: the workload generator never saw a
//! hit rate. Whatever comes out is a *prediction* from the synthetic
//! workload's locality structure.

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
