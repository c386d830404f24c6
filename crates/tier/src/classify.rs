//! The weighted Hot/Warm/Cold classification pass.
//!
//! SNIPPETS Snippet 1's dynamic replica-management rule, adapted from
//! files to archive segments: a segment's *demand* is its access
//! frequency weighted by reader coverage (`scans × (1 + distinct reader
//! classes)` — the paper's observation that multi-node files dominate
//! traffic), and the thresholds are derived dynamically from the
//! catalog's own demand distribution rather than fixed constants:
//!
//! * **Hot**  — demand ≥ `hot_weight` × the mean demand,
//! * **Cold** — never scanned, or demand strictly below the mean demand
//!   divided by `cold_weight`,
//! * **Warm** — everything between.
//!
//! All arithmetic is exact integer math (products in `u128`, so no
//! overflow and no float thresholds), and the rule for one segment
//! depends only on its own demand, the segment count, and the demand
//! *sum* — a symmetric function — so classification is invariant under
//! any permutation of the ledger and under the scan order that produced
//! it. The `charisma-verify gates tier` gate and the property suite pin both.

use charisma_store::SegmentAccess;

/// A segment's storage temperature.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// High-demand: replicated above baseline for parallel-scan fan-out.
    Hot,
    /// Baseline demand: keeps the plan's base replica factor.
    Warm,
    /// Low/no demand: demoted to a single copy behind a parity group.
    Cold,
}

/// A segment's demand: scans weighted by reader coverage. Never-scanned
/// segments have demand 0 regardless of mask bits.
pub fn demand(access: &SegmentAccess) -> u64 {
    access
        .scans
        .saturating_mul(1 + u64::from(access.reader_count()))
}

/// Classify every segment from its demand. `hot_weight` and
/// `cold_weight` are clamped to at least 1; an all-zero demand vector
/// (nothing ever scanned) is entirely Cold. Hot is tested first, so on
/// the degenerate `hot_weight == cold_weight == 1` configuration a
/// uniform catalog reads Hot, not Cold.
pub fn classify(demands: &[u64], hot_weight: u32, cold_weight: u32) -> Vec<Tier> {
    let hot_weight = u128::from(hot_weight.max(1));
    let cold_weight = u128::from(cold_weight.max(1));
    let n = demands.len() as u128;
    let total: u128 = demands.iter().map(|&d| u128::from(d)).sum();
    demands
        .iter()
        .map(|&d| {
            let d = u128::from(d);
            if total == 0 || d == 0 {
                Tier::Cold
            } else if d * n >= hot_weight * total {
                Tier::Hot
            } else if d * n * cold_weight < total {
                Tier::Cold
            } else {
                Tier::Warm
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_demand_splits_into_all_three_tiers() {
        // One dominant segment, a mid band, and a dead tail — the
        // paper's skew shape. Mean = 1010/4; hot ≥ 2×mean = 505;
        // cold < mean/4 ≈ 63.
        let tiers = classify(&[1000, 200, 10, 0], 2, 4);
        assert_eq!(tiers, vec![Tier::Hot, Tier::Warm, Tier::Cold, Tier::Cold]);
    }

    #[test]
    fn uniform_and_empty_catalogs_classify_sanely() {
        assert_eq!(classify(&[], 2, 4), Vec::<Tier>::new());
        assert_eq!(classify(&[0, 0, 0], 2, 4), vec![Tier::Cold; 3]);
        // Uniform demand is all Warm under the default weights...
        assert_eq!(classify(&[7, 7, 7], 2, 4), vec![Tier::Warm; 3]);
        // ...and all Hot when the hot threshold collapses to the mean.
        assert_eq!(classify(&[7, 7, 7], 1, 1), vec![Tier::Hot; 3]);
    }

    #[test]
    fn classification_is_permutation_equivariant() {
        let demands = [900u64, 31, 0, 44, 120, 0, 9000, 2];
        let tiers = classify(&demands, 2, 4);
        let mut reversed: Vec<u64> = demands.to_vec();
        reversed.reverse();
        let mut tiers_rev = classify(&reversed, 2, 4);
        tiers_rev.reverse();
        assert_eq!(tiers, tiers_rev);
    }

    #[test]
    fn demand_weights_scans_by_coverage() {
        let narrow = SegmentAccess {
            scans: 10,
            readers: 0b1,
            ..SegmentAccess::default()
        };
        let wide = SegmentAccess {
            scans: 10,
            readers: u64::MAX,
            ..SegmentAccess::default()
        };
        let dead = SegmentAccess {
            scans: 0,
            readers: u64::MAX,
            ..SegmentAccess::default()
        };
        assert_eq!(demand(&narrow), 20);
        assert_eq!(demand(&wide), 650);
        assert_eq!(demand(&dead), 0, "coverage without scans is not demand");
    }
}
