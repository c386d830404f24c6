//! A simulator of Intel's Concurrent File System (CFS), the parallel file
//! system of the iPSC/860.
//!
//! "Intel's Concurrent File System provides a Unix-like interface to the
//! user with the addition of four I/O modes to help the programmer
//! coordinate parallel access to files. ... CFS stripes each file across all
//! disks in 4 KB blocks. Compute nodes send requests directly to the
//! appropriate I/O node. Only the I/O nodes have a buffer cache."
//! (paper, section 2.4)
//!
//! Modules:
//!
//! * [`mode`] — the four CFS I/O modes and their coordination semantics;
//! * [`stripe`] — round-robin 4 KB block striping across I/O nodes;
//! * [`disk`] — a first-order disk service-time model;
//! * [`cache`] — the I/O nodes' LRU block buffer cache;
//! * [`fs`] — the file-system proper: open/read/write/seek/close/delete;
//! * [`strided`] — the paper's recommended strided-request interface, as an
//!   extension;
//! * [`collective`] — collective I/O, as an extension.

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

pub mod cache;
pub mod collective;
pub mod disk;
pub mod error;
pub mod faults;
pub mod fs;
pub mod mode;
pub mod strided;
pub mod stripe;

pub use cache::{BlockKey, LruCache, Touch};
pub use collective::{CollectiveOutcome, CollectiveShare};
pub use disk::{BlockService, DiskModel, DiskState};
pub use error::CfsError;
pub use faults::CfsFaults;
pub use fs::{Access, Cfs, CfsConfig, CfsMetrics, CfsStats, IoOutcome, OpenResult};
pub use mode::IoMode;
pub use strided::StridedSpec;
pub use stripe::Striping;

/// The CFS file-system block size: "CFS stripes each file across all disks
/// in 4 KB blocks."
pub const BLOCK_BYTES: u64 = 4096;
