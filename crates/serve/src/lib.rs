//! charisma-serve: a deterministic multi-tenant archive service over the
//! store's build/serve split.
//!
//! The CHARISMA study watched many jobs stream file-access events through
//! one shared system; this crate is the repo's "open archive" analog —
//! many simulated *sites* (tenants) ingesting trace batches into one
//! long-lived service while many readers query the published catalogs:
//!
//! * [`Service`] hosts N tenants. Each [`Service::submit`] enters a
//!   bounded per-tenant queue ([`QUEUE_BATCHES`]), and under
//!   backpressure drains into an append-only
//!   [`SegmentBuilder`](charisma_store::SegmentBuilder) that seals
//!   immutable [`SealedSegment`](charisma_store::SealedSegment)s into the
//!   tenant's published catalog.
//! * [`Snapshot`] pins a tenant's catalog at a moment: cloned segment
//!   handles (shared bytes, no copies) that concurrent ingest can never
//!   mutate — reads see exactly a prefix of the admitted stream.
//! * [`FederatedQuery`] fans one [`Query`](charisma_store::Query) out
//!   across all tenants with scoped worker threads and stably sorts the
//!   tenant-ordered results by `(time, node)`.
//!
//! # Determinism contract
//!
//! Published catalog bytes are a pure function of `(service seed, scale,
//! per-tenant batch sequences)`. Worker counts, ingest interleavings, and
//! backpressure timing are execution details — `charisma-verify gates serve`
//! pins bit-identical catalogs across all of them, and the property suite
//! pins federated scans to a concat-and-stable-sort oracle and snapshots
//! to serial prefix replays.

// Determinism rules; the disallowed types and methods live in clippy.toml.
#![forbid(unsafe_code)] // CH006
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)] // CH009
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // CH003
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))] // CH005
#![cfg_attr(
    not(test),
    deny(
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::float_cmp
    )
)] // CH008

mod federate;
mod metrics;
mod service;

pub use federate::FederatedQuery;
pub use metrics::ServeMetrics;
pub use service::{domain, Admission, Service, ServiceConfig, Snapshot, TenantFeed, QUEUE_BATCHES};

use charisma_store::StoreError;

/// Everything that can go wrong serving archives.
#[derive(Debug)]
pub enum ServeError {
    /// A tenant index at or past the configured tenant count.
    UnknownTenant {
        /// The offending index.
        tenant: usize,
        /// How many tenants the service hosts.
        tenants: usize,
    },
    /// Two ingest feeds named the same tenant: their batch interleaving
    /// would depend on scheduling and break catalog byte-identity.
    DuplicateFeed {
        /// The tenant named twice.
        tenant: usize,
    },
    /// A catalog scan failed in the store layer.
    Store(StoreError),
    /// One tenant's scan of a federated query failed in the store layer;
    /// the lowest such tenant is named.
    TenantScan {
        /// The failing tenant.
        tenant: usize,
        /// Its scan's error.
        source: StoreError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant { tenant, tenants } => {
                write!(f, "unknown tenant {tenant} (service hosts {tenants})")
            }
            ServeError::DuplicateFeed { tenant } => {
                write!(f, "tenant {tenant} appears in more than one ingest feed")
            }
            ServeError::Store(e) => write!(f, "store error while serving: {e}"),
            ServeError::TenantScan { tenant, source } => {
                write!(f, "store error scanning tenant {tenant}: {source}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) | ServeError::TenantScan { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}
