//! Deterministic fault injection: seeded plans, stateless decisions.
//!
//! The machine the paper traced was real hardware: I/O nodes stalled,
//! disks returned transient errors, messages were delayed, and node
//! clocks occasionally jumped when an operator intervened. The simulator
//! models the happy path by default; this module adds a *chaos layer*
//! that perturbs it — without ever giving up determinism.
//!
//! Every fault decision is a pure function of a [`FaultPlan`] seed and
//! the *stable identity* of the thing being perturbed (I/O node, file,
//! block, message endpoints, attempt number), hashed through splitmix64.
//! No draw consumes state from a shared stream, so outcomes are
//! independent of evaluation order and therefore of worker count: a
//! serial run and a 16-way sharded run inject exactly the same faults.
//! This is also why faults draw from a dedicated RNG and not the
//! workload RNG — see `DESIGN.md`.

use core::sync::atomic::{AtomicU64, Ordering};

use charisma_obs::{Counter, Histogram, MetricsRegistry};

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixing
/// function. Same constants as `workload::shard::derive_shard_seed`.
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mix a plan seed with a per-shard generator seed so shards stay
/// decorrelated while each shard's fate is still fixed for every worker
/// count (shard seeds themselves never depend on worker count).
pub fn mix_seed(plan_seed: u64, shard_seed: u64) -> u64 {
    splitmix64(plan_seed ^ shard_seed.rotate_left(32))
}

/// Domain separators so different fault kinds keyed on the same identity
/// draw independent values.
pub mod domain {
    pub const DISK_FATE: u64 = 0x01;
    pub const DISK_FAILS: u64 = 0x02;
    pub const BACKOFF: u64 = 0x03;
    pub const STALL: u64 = 0x04;
    pub const MSG_DROP: u64 = 0x05;
    pub const MSG_DELAY: u64 = 0x06;
    pub const MSG_DELAY_AMOUNT: u64 = 0x07;
    pub const MSG_DUP: u64 = 0x08;
    pub const CLOCK_FATE: u64 = 0x09;
    pub const CLOCK_AT: u64 = 0x0a;
    pub const CLOCK_DELTA: u64 = 0x0b;
    pub const ARCHIVE_CORRUPT: u64 = 0x0c;
    pub const REPLICA_LOSS: u64 = 0x0d;
}

/// A stateless fault RNG: decisions are hashes, not draws.
///
/// `decide(domain, ids)` folds the domain separator and each identity
/// component through [`splitmix64`]; equal inputs always produce equal
/// outputs, and no call perturbs any other call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRng {
    seed: u64,
}

impl FaultRng {
    pub fn new(seed: u64) -> Self {
        FaultRng { seed }
    }

    /// A 64-bit value determined by `(seed, domain, ids)` alone.
    pub fn decide(&self, domain: u64, ids: &[u64]) -> u64 {
        let mut h = splitmix64(self.seed ^ domain.wrapping_mul(0xff51_afd7_ed55_8ccd));
        for &id in ids {
            h = splitmix64(h ^ id);
        }
        h
    }

    /// True with probability `ppm` parts-per-million.
    pub fn chance(&self, ppm: u32, domain: u64, ids: &[u64]) -> bool {
        ppm > 0 && self.decide(domain, ids) % 1_000_000 < u64::from(ppm)
    }

    /// A value in `0..=max`, determined by `(seed, domain, ids)`.
    pub fn bounded(&self, max: u64, domain: u64, ids: &[u64]) -> u64 {
        if max == 0 {
            0
        } else {
            self.decide(domain, ids) % (max + 1)
        }
    }
}

/// Retry policy for faulted CFS requests: capped exponential backoff
/// with deterministic jitter, plus an optional per-request timeout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries before a transient fault is treated as permanent.
    pub max_retries: u32,
    /// First backoff, µs. Doubles per attempt.
    pub base_backoff_us: u64,
    /// Upper bound on any single backoff, µs.
    pub backoff_cap_us: u64,
    /// Per-request timeout, µs; `0` disables the timeout.
    pub timeout_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_us: 1_000,
            backoff_cap_us: 64_000,
            timeout_us: 0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry `attempt` (0-based) of request `request_id`.
    ///
    /// The schedule is `exp/2 + jitter` where `exp = min(base << attempt,
    /// cap)` and the jitter is a deterministic hash of `(seed,
    /// request_id, attempt)` in `0..=exp/2` — so every backoff is in
    /// `[exp/2, exp]` and never exceeds `backoff_cap_us`.
    pub fn backoff_us(&self, rng: &FaultRng, request_id: u64, attempt: u32) -> u64 {
        let exp = self
            .base_backoff_us
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .clamp(1, self.backoff_cap_us.max(1));
        let half = exp / 2;
        let jitter = rng.bounded(
            exp - half,
            domain::BACKOFF,
            &[request_id, u64::from(attempt)],
        );
        half + jitter
    }
}

/// An I/O node scheduled to go down at a point in simulated time (and
/// stay down: the NAS operators swapped hardware between trace weeks,
/// not mid-trace).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoNodeDown {
    /// Which I/O node fails.
    pub io_node: u32,
    /// True simulation time of the failure, µs.
    pub at_us: u64,
}

/// A seeded description of every fault the chaos layer injects into the
/// simulated machine: its disks, I/O nodes, messages and node clocks.
/// All rates are parts-per-million; a default-constructed
/// plan (or [`FaultPlan::none`]) injects nothing, and the pipeline
/// proves that an empty plan is byte-identical to no plan at all.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Root seed of the dedicated fault RNG stream.
    pub seed: u64,
    /// Probability that a (disk, file, block) address is flaky, ppm.
    pub disk_transient_ppm: u32,
    /// Disk service-time inflation, ppm (250 000 = 25 % slower).
    pub disk_degrade_ppm: u32,
    /// I/O nodes that fail permanently mid-run.
    pub io_node_down: Vec<IoNodeDown>,
    /// Probability an I/O node stalls on a request, ppm.
    pub io_stall_ppm: u32,
    /// Length of one stall, µs.
    pub io_stall_us: u64,
    /// Message delay probability, ppm.
    pub msg_delay_ppm: u32,
    /// Maximum injected message delay, µs.
    pub msg_delay_max_us: u64,
    /// Message drop probability, ppm (dropped packets are retransmitted;
    /// the cost is latency, not loss).
    pub msg_drop_ppm: u32,
    /// Message duplication probability, ppm (duplicates cost congestion).
    pub msg_dup_ppm: u32,
    /// Probability a node's clock jumps forward once, ppm.
    pub clock_jump_ppm: u32,
    /// Maximum clock jump, µs.
    pub clock_jump_max_us: u64,
    /// Retry/backoff/timeout policy for faulted CFS requests.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// A plan that injects nothing. Attaching it is a no-op.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan can never inject a fault or alter a latency.
    pub fn is_empty(&self) -> bool {
        self.disk_transient_ppm == 0
            && self.disk_degrade_ppm == 0
            && self.io_node_down.is_empty()
            && self.io_stall_ppm == 0
            && self.msg_delay_ppm == 0
            && self.msg_drop_ppm == 0
            && self.msg_dup_ppm == 0
            && self.clock_jump_ppm == 0
            && self.retry.timeout_us == 0
    }

    /// The canonical chaos fixture: every fault class enabled at rates
    /// that exercise retry, failover, and timeout paths without drowning
    /// the workload. `charisma-verify gates chaos` pins this plan (and its
    /// metrics) as checked-in fixtures.
    pub fn chaos_fixture() -> Self {
        FaultPlan {
            seed: 0xC7A0_5C7A,
            disk_transient_ppm: 20_000,
            disk_degrade_ppm: 250_000,
            io_node_down: vec![IoNodeDown {
                io_node: 7,
                at_us: 3_600_000_000,
            }],
            io_stall_ppm: 5_000,
            io_stall_us: 50_000,
            msg_delay_ppm: 10_000,
            msg_delay_max_us: 2_000,
            msg_drop_ppm: 2_000,
            msg_dup_ppm: 5_000,
            clock_jump_ppm: 150_000,
            clock_jump_max_us: 2_000_000,
            retry: RetryPolicy {
                max_retries: 3,
                base_backoff_us: 1_000,
                backoff_cap_us: 32_000,
                timeout_us: 60_000_000,
            },
        }
    }
}

/// Metric handles for the chaos layer, registered under the `faults.`
/// prefix. Only registered when a non-empty plan is attached, so a
/// fault-free run's metrics snapshot carries no `faults.*` keys at all.
#[derive(Clone, Debug, Default)]
pub struct FaultMetrics {
    /// Every injected fault event, all classes.
    pub injected: Counter,
    /// Flaky (disk, file, block) reads encountered.
    pub disk_transient: Counter,
    /// Backoff-then-retry cycles performed.
    pub retried: Counter,
    /// Requests that exceeded the per-request timeout.
    pub timed_out: Counter,
    /// Requests served degraded (read-around / stripe failover).
    pub degraded: Counter,
    /// Messages delayed in flight.
    pub msg_delayed: Counter,
    /// Messages dropped (and retransmitted).
    pub msg_dropped: Counter,
    /// Messages duplicated.
    pub msg_duplicated: Counter,
    /// I/O-node request stalls.
    pub io_stalls: Counter,
    /// Clocks that jumped.
    pub clock_jumps: Counter,
    /// Distribution of retry backoffs, µs.
    pub backoff_us: Histogram,
    /// Distribution of injected message delays, µs.
    pub msg_delay_us: Histogram,
}

impl FaultMetrics {
    /// Handles registered under the `faults.` prefix of `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        FaultMetrics {
            injected: registry.counter("faults.injected"),
            disk_transient: registry.counter("faults.disk_transient"),
            retried: registry.counter("faults.retried"),
            timed_out: registry.counter("faults.timed_out"),
            degraded: registry.counter("faults.degraded"),
            msg_delayed: registry.counter("faults.msg_delayed"),
            msg_dropped: registry.counter("faults.msg_dropped"),
            msg_duplicated: registry.counter("faults.msg_duplicated"),
            io_stalls: registry.counter("faults.io_stalls"),
            clock_jumps: registry.counter("faults.clock_jumps"),
            backoff_us: registry.histogram("faults.backoff_us"),
            msg_delay_us: registry.histogram("faults.msg_delay_us"),
        }
    }
}

/// Network fault state attached to a [`crate::Machine`]: message delay,
/// drop (modeled as retransmit latency), and duplication (modeled as
/// congestion).
///
/// Messages have no stable identity of their own, so each latency query
/// takes a sequence number from an atomic counter. The counter is the
/// only stateful piece of the chaos layer — it is per-`Machine`, and
/// each shard owns its machine, so the sequence (and thus every
/// decision) is still independent of worker count.
#[derive(Debug)]
pub struct NetFaultState {
    rng: FaultRng,
    delay_ppm: u32,
    delay_max_us: u64,
    drop_ppm: u32,
    dup_ppm: u32,
    retransmit_us: u64,
    metrics: Option<FaultMetrics>,
    seq: AtomicU64,
}

/// Congestion cost of a duplicated message, µs.
const DUP_CONGESTION_US: u64 = 20;

impl Clone for NetFaultState {
    fn clone(&self) -> Self {
        NetFaultState {
            rng: self.rng,
            delay_ppm: self.delay_ppm,
            delay_max_us: self.delay_max_us,
            drop_ppm: self.drop_ppm,
            dup_ppm: self.dup_ppm,
            retransmit_us: self.retransmit_us,
            metrics: self.metrics.clone(),
            seq: AtomicU64::new(self.seq.load(Ordering::Relaxed)),
        }
    }
}

impl NetFaultState {
    /// Build from a plan. `fault_seed` is the already-mixed per-shard
    /// seed (see [`mix_seed`]).
    pub fn new(plan: &FaultPlan, fault_seed: u64, metrics: Option<FaultMetrics>) -> Self {
        NetFaultState {
            rng: FaultRng::new(fault_seed),
            delay_ppm: plan.msg_delay_ppm,
            delay_max_us: plan.msg_delay_max_us,
            drop_ppm: plan.msg_drop_ppm,
            dup_ppm: plan.msg_dup_ppm,
            // A dropped message costs one retransmission round trip,
            // derived from the retry policy's base backoff.
            retransmit_us: plan.retry.base_backoff_us.max(100) * 4,
            metrics,
            seq: AtomicU64::new(0),
        }
    }

    /// Extra latency injected into the message `(src, dst, bytes)`, µs.
    /// Consumes one sequence number per call.
    pub fn message_extra_us(&self, src: u64, dst: u64, bytes: u64) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let ids = [src, dst, bytes, seq];
        let mut extra = 0;
        if self.rng.chance(self.drop_ppm, domain::MSG_DROP, &ids) {
            extra += self.retransmit_us;
            if let Some(m) = &self.metrics {
                m.msg_dropped.inc();
                m.injected.inc();
            }
        }
        if self.rng.chance(self.delay_ppm, domain::MSG_DELAY, &ids) {
            let d = self
                .rng
                .bounded(self.delay_max_us, domain::MSG_DELAY_AMOUNT, &ids);
            extra += d;
            if let Some(m) = &self.metrics {
                m.msg_delayed.inc();
                m.injected.inc();
                m.msg_delay_us.record(d);
            }
        }
        if self.rng.chance(self.dup_ppm, domain::MSG_DUP, &ids) {
            extra += DUP_CONGESTION_US;
            if let Some(m) = &self.metrics {
                m.msg_duplicated.inc();
                m.injected.inc();
            }
        }
        extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decide_is_pure_and_domain_separated() {
        let rng = FaultRng::new(42);
        assert_eq!(
            rng.decide(domain::DISK_FATE, &[1, 2, 3]),
            rng.decide(domain::DISK_FATE, &[1, 2, 3])
        );
        assert_ne!(
            rng.decide(domain::DISK_FATE, &[1, 2, 3]),
            rng.decide(domain::STALL, &[1, 2, 3])
        );
        assert_ne!(
            rng.decide(domain::DISK_FATE, &[1, 2, 3]),
            rng.decide(domain::DISK_FATE, &[3, 2, 1])
        );
    }

    #[test]
    fn chance_matches_rate_roughly() {
        let rng = FaultRng::new(7);
        let hits = (0..100_000u64)
            .filter(|&i| rng.chance(100_000, domain::DISK_FATE, &[i]))
            .count();
        // 10 % ± 1 % over 100k trials.
        assert!((9_000..11_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn zero_ppm_never_fires_and_bounded_respects_max() {
        let rng = FaultRng::new(9);
        for i in 0..1000u64 {
            assert!(!rng.chance(0, domain::MSG_DROP, &[i]));
            assert!(rng.bounded(17, domain::MSG_DELAY_AMOUNT, &[i]) <= 17);
            assert_eq!(rng.bounded(0, domain::MSG_DELAY_AMOUNT, &[i]), 0);
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff_us: 1_000,
            backoff_cap_us: 8_000,
            timeout_us: 0,
        };
        let rng = FaultRng::new(1);
        let mut prev = 0;
        for attempt in 0..12 {
            let b = policy.backoff_us(&rng, 99, attempt);
            let exp = (1_000u64 << attempt.min(3)).min(8_000);
            assert!(b >= exp / 2 && b <= exp, "attempt {attempt}: {b}");
            assert!(b >= prev / 2, "not collapsing");
            prev = b;
        }
    }

    #[test]
    fn empty_plan_is_empty_and_fixture_is_not() {
        assert!(FaultPlan::none().is_empty());
        assert!(FaultPlan::default().is_empty());
        assert!(!FaultPlan::chaos_fixture().is_empty());
        let mut timeout_only = FaultPlan::none();
        timeout_only.retry.timeout_us = 1;
        assert!(!timeout_only.is_empty(), "a timeout alone still acts");
    }

    #[test]
    fn net_faults_are_replayable_via_clone() {
        let plan = FaultPlan::chaos_fixture();
        let a = NetFaultState::new(&plan, 77, None);
        let b = a.clone();
        let xa: Vec<u64> = (0..200).map(|i| a.message_extra_us(1, 2, i * 64)).collect();
        let xb: Vec<u64> = (0..200).map(|i| b.message_extra_us(1, 2, i * 64)).collect();
        assert_eq!(xa, xb);
        assert!(xa.iter().any(|&x| x > 0), "fixture rates must fire");
    }

    #[test]
    fn mix_seed_separates_shards() {
        let s0 = mix_seed(0xC7A0_5C7A, 111);
        let s1 = mix_seed(0xC7A0_5C7A, 222);
        assert_ne!(s0, s1);
        assert_eq!(s0, mix_seed(0xC7A0_5C7A, 111));
    }
}
