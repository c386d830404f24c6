//! charisma-tier: hot/warm/cold segment tiering with dynamic
//! replication and parity-protected cold storage.
//!
//! The paper's central finding is extreme access skew — a small
//! fraction of files absorbs most of the I/O traffic — which is exactly
//! the regime where dynamic replica management pays off. This crate
//! closes the loop from *observed* access patterns to *storage layout*
//! over the store's replica/scrub substrate:
//!
//! * the scan engine feeds a per-segment
//!   [`AccessLedger`](charisma_store::AccessLedger) (scan counts ×
//!   reader coverage);
//! * [`classify`] runs the weighted classification pass — demand
//!   against thresholds derived from the catalog's own distribution —
//!   yielding a [`Tier`] per segment;
//! * [`TieredSet::build`] applies a [`TierPlan`]: Hot segments gain
//!   replicas (placed by the same `FaultRng` hash the replica layer
//!   uses, so layout is a pure function of seed + access history), Warm
//!   keeps the baseline, Cold collapses to one copy protected by XOR
//!   [`ParityGroup`](charisma_store::ParityGroup)s;
//! * [`TieredSet::degraded_reader`] serves a damaged tiered catalog
//!   bit-identically to a healthy one — replica failover first, parity
//!   reconstruction last — and [`TieredSet::heal`] restores full
//!   health, scrub-verified.
//!
//! Everything is deterministic and auditable: [`TierPlan`] /
//! [`TierReport`] round-trip through the same plain-text codec as the
//! chaos layer's fault plans, `tier.*` counters land in the pinned
//! metrics fixture, and the `charisma-verify gates tier` gate holds
//! classification to worker-count- and scan-order-invariance and parity
//! to byte-exact single-loss reconstruction. Tiering is layout, not
//! format: no plan changes the canonical archive bytes.

mod classify;
mod metrics;
mod plan;
mod policy;

pub use classify::{classify, demand, Tier};
pub use metrics::TierMetrics;
pub use plan::{TierCodecError, TierPlan, TierReport};
pub use policy::{HealReport, TieredSet};
