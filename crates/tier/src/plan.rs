//! The tiering policy's plain data: [`TierPlan`] in, [`TierReport`] out.
//!
//! A plan plus an access ledger fully determines a
//! [`TieredSet`](crate::TieredSet); the report is the auditable record
//! of what the policy did, including the full per-segment assignment
//! vector, so two runs can be compared with `==`.

use crate::classify::Tier;

/// Everything the tiering policy needs to decide a layout. Same plan +
/// same access ledger ⇒ same assignments, placements, and parity bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierPlan {
    /// Seed of the placement hash (the replica layer's `FaultRng`
    /// discipline: layout is a pure function of this and the catalog).
    pub seed: u64,
    /// Simulated I/O nodes available for placement.
    pub nodes: u32,
    /// Replica factor for Warm segments (the baseline).
    pub base_factor: u32,
    /// Replica factor Hot segments are raised to.
    pub hot_factor: u32,
    /// Hot threshold: demand ≥ `hot_weight` × mean demand.
    pub hot_weight: u32,
    /// Cold threshold: demand < mean demand / `cold_weight`.
    pub cold_weight: u32,
    /// Cold segments per parity group (k data + 1 parity blob).
    pub parity_k: u32,
}

impl Default for TierPlan {
    fn default() -> Self {
        // Eight nodes / duplexed warm baseline: hot segments fan out to
        // half the pool, cold ones collapse to one copy + shared parity.
        TierPlan {
            seed: 0xC7A0_71E6,
            nodes: 8,
            base_factor: 2,
            hot_factor: 4,
            hot_weight: 2,
            cold_weight: 4,
            parity_k: 4,
        }
    }
}

/// What one policy run decided: tier census, replica-set deltas, parity
/// layout, and the full per-segment assignment vector.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TierReport {
    /// Segments classified.
    pub segments: u64,
    /// Segments assigned Hot.
    pub hot: u64,
    /// Segments assigned Warm.
    pub warm: u64,
    /// Segments assigned Cold.
    pub cold: u64,
    /// Segments whose replica factor was raised above the baseline.
    pub promotions: u64,
    /// Segments whose replica factor was lowered below the baseline.
    pub demotions: u64,
    /// Replica copies created by promotions.
    pub replicas_added: u64,
    /// Replica copies dropped by demotions.
    pub replicas_dropped: u64,
    /// Parity groups built over the cold segments.
    pub parity_groups: u64,
    /// Total parity blob bytes (the storage cost of cold protection).
    pub parity_bytes: u64,
    /// Per-segment assignment, in catalog order.
    pub assignments: Vec<Tier>,
}
