//! The CHARISMA trace format and collection pipeline.
//!
//! The paper's instrumentation lived in the user-level CFS library: every
//! I/O call appended an event record to a 4 KB buffer on the calling compute
//! node; full buffers were sent to a data collector on the service node,
//! which wrote them to a central trace file. Job starts and ends were
//! recorded through a separate mechanism. Because node clocks drift, each
//! buffer was timestamped once when it left the node (node clock) and again
//! on receipt (collector clock), and a postprocessing pass used the pairs to
//! approximately rectify event order.
//!
//! This crate reproduces that pipeline:
//!
//! * [`record`] — the event-record vocabulary (open/close/read/write/...);
//! * [`codec`] — a compact binary encoding with a self-descriptive header;
//! * [`builder`] — per-node 4 KB buffering plus the service-node collector;
//! * [`postprocess`](mod@postprocess) — drift estimation and chronological rectification;
//! * [`merge`] — deterministic k-way merge of per-shard rectified streams;
//! * [`file`](mod@file) — writing and reading trace files.

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

pub mod builder;
pub mod codec;
pub mod file;
pub mod merge;
pub mod postprocess;
pub mod record;

pub use builder::{Block, Trace, TraceBuilder};
pub use codec::{decode_events_tolerant, DecodeStats};
pub use file::{read_trace, read_trace_tolerant, write_trace, TolerantTrace, TraceFileError};
pub use merge::{MergeMetrics, MergedEvents};
pub use postprocess::{postprocess, OrderedEvent};
pub use record::{
    AccessKind, Event, EventBody, FileId, JobId, SessionId, TraceHeader, SERVICE_NODE,
};
