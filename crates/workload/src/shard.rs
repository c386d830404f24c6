//! Sharded workload generation: plan once, simulate in parallel, merge
//! deterministically.
//!
//! The monolithic generator ([`crate::generate()`]) runs the entire
//! three-week job population through one discrete-event loop. That is
//! faithful but single-threaded — the hot path of the whole
//! reproduction. This module shards it:
//!
//! 1. **Plan** — the global [`Mix`] is planned exactly once from the
//!    master seed, then partitioned round-robin (by arrival rank) into
//!    [`LOGICAL_SHARDS`] per-shard job sets. The partition is a pure
//!    function of the plan: it never depends on how many worker threads
//!    later run it.
//! 2. **Simulate** — each shard runs its job subset on its *own* machine
//!    and CFS instance, driven by an independent `StdRng` stream derived
//!    from `(seed, shard)`. Shards share no mutable state, so any number
//!    of `std::thread::scope` workers can execute them in any order.
//! 3. **Merge** — per-shard traces are rectified independently and merged
//!    with [`charisma_trace::merge`]'s deterministic k-way merge. Session
//!    and file identifiers are rebased into per-shard namespaces (shard
//!    id in the high bits) so the merged stream stays globally coherent.
//!
//! Because the plan, the per-shard simulations, and the merge are each
//! deterministic, the merged stream is **bit-identical** for every worker
//! count — `charisma-verify gates determinism` proves it.
//!
//! The trade-off: shards do not contend for one 128-node allocator, so
//! machine-level concurrency (Figure 1) reflects the union of
//! [`LOGICAL_SHARDS`] lightly loaded machines rather than one saturated
//! one. Every *file-centric* statistic — sizes, request sizes,
//! sequentiality, regularity, modes, sharing — is per-job and survives
//! sharding unchanged.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};

use charisma_ipsc::par::claim_each;
use charisma_obs::MetricsSnapshot;
use charisma_trace::merge::MergedEvents;
use charisma_trace::postprocess::postprocess;

use crate::generate::{dataset_pool_size, generate_with_mix, GenStats, GeneratedWorkload};
use crate::mix::{Mix, Scale};
use crate::GeneratorConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of logical shards the job mix is partitioned into.
///
/// This is a *plan* constant, not a thread count: `workers` in
/// [`try_generate_sharded`] only chooses how many threads execute the
/// shards. Keeping the partition fixed is what makes the merged stream
/// identical for every worker count. Sixteen shards keep the largest
/// shard well under half the total work (the out-of-core singleton
/// dominates its shard), which is what bounds parallel speedup.
pub const LOGICAL_SHARDS: usize = 16;

/// Bits reserved for per-shard session/file counters; the shard index
/// lives above them. 24 bits ≈ 16.7 M sessions per shard — the full-scale
/// workload produces ~60 K in total.
pub const SHARD_ID_SHIFT: u32 = 24;

/// The session/file identifier base for a shard.
pub fn shard_id_base(shard: usize) -> u32 {
    (shard as u32) << SHARD_ID_SHIFT
}

/// Derive shard `shard`'s RNG seed from the master seed (splitmix64 over
/// the pair, so nearby seeds and shard indices decorrelate).
pub fn derive_shard_seed(seed: u64, shard: u64) -> u64 {
    let mut z = seed ^ shard.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Partition a planned mix into [`LOGICAL_SHARDS`] per-shard sub-mixes.
///
/// Round-robin by arrival rank: each shard sees an even slice of the
/// whole traced period, so shard workloads stay balanced in time as well
/// as in count. Job ids (assigned globally by [`Mix::plan`]) are kept, so
/// they remain unique across the merged stream.
pub fn partition_mix(mix: &Mix) -> Vec<Mix> {
    let mut shards: Vec<Mix> = (0..LOGICAL_SHARDS)
        .map(|_| Mix {
            jobs: Vec::with_capacity(mix.jobs.len() / LOGICAL_SHARDS + 1),
            trace_len: mix.trace_len,
        })
        .collect();
    for (i, job) in mix.jobs.iter().enumerate() {
        shards[i % LOGICAL_SHARDS].jobs.push(job.clone());
    }
    shards
}

/// A sharded generated workload: every shard's trace plus merged facts.
#[derive(Clone, Debug)]
pub struct ShardedWorkload {
    /// Per-shard outputs, indexed by shard. Each holds that shard's raw
    /// collected trace (session/file ids already rebased into the shard's
    /// namespace) and its local stats.
    pub shards: Vec<GeneratedWorkload>,
    /// Stats aggregated across shards.
    pub stats: GenStats,
    /// Per-shard metric snapshots merged into one (counters summed, gauges
    /// maxed, histograms added bucket-wise). Because the merge rules are
    /// associative and commutative and the partition is fixed, this is
    /// identical for every worker count.
    pub metrics: MetricsSnapshot,
}

impl ShardedWorkload {
    /// Total trace records across all shards.
    pub fn event_count(&self) -> usize {
        self.shards.iter().map(|s| s.trace.event_count()).sum()
    }

    /// Rectify every shard's trace and merge them into one globally
    /// ordered stream.
    ///
    /// Per-shard clock fitting is unchanged from the monolithic path (a
    /// shard's blocks carry its own machine's clocks); the cross-shard
    /// order is the deterministic `(time, node, shard, seq)` merge.
    pub fn merged_events(&self) -> MergedEvents {
        MergedEvents::new(self.shards.iter().map(|s| postprocess(&s.trace)).collect())
    }
}

/// Merge per-shard stats into workload-level aggregates.
fn merge_stats(shards: &[GeneratedWorkload]) -> GenStats {
    let mut out = GenStats::default();
    let mut weighted_reduction = 0.0;
    let mut weight = 0.0;
    for s in shards {
        out.jobs += s.stats.jobs;
        out.traced_jobs += s.stats.traced_jobs;
        out.sessions += s.stats.sessions;
        out.requests += s.stats.requests;
        out.end_time = out.end_time.max(s.stats.end_time);
        let w = s.trace.event_count() as f64;
        weighted_reduction += w * s.stats.message_reduction;
        weight += w;
    }
    out.message_reduction = if weight > 0.0 {
        weighted_reduction / weight
    } else {
        0.0
    };
    out
}

/// Rebase a shard trace's session/file identifiers into the shard's
/// namespace.
fn rebase_ids(workload: &mut GeneratedWorkload, shard: usize) {
    let base = shard_id_base(shard);
    if base == 0 {
        return;
    }
    for block in &mut workload.trace.blocks {
        for event in &mut block.events {
            charisma_ipsc::invariant!(
                matches!(
                    event.body,
                    charisma_trace::record::EventBody::JobStart { .. }
                        | charisma_trace::record::EventBody::JobEnd { .. }
                ) || {
                    let max = 1u32 << SHARD_ID_SHIFT;
                    match event.body {
                        charisma_trace::record::EventBody::Open { file, session, .. } => {
                            file < max && session < max
                        }
                        charisma_trace::record::EventBody::Close { session, .. }
                        | charisma_trace::record::EventBody::Read { session, .. }
                        | charisma_trace::record::EventBody::Write { session, .. } => session < max,
                        charisma_trace::record::EventBody::Delete { file, .. } => file < max,
                        _ => true,
                    }
                },
                "shard {shard} overflowed its {SHARD_ID_SHIFT}-bit id namespace"
            );
            event.body = event.body.with_id_base(base);
        }
    }
}

/// A shard worker that failed even after bounded retry.
///
/// Carried out of [`try_generate_sharded`] instead of letting the panic
/// tear down the whole pipeline: the caller learns which shard died, how
/// many attempts were made, and the panic's message.
#[derive(Clone, Debug)]
pub struct ShardFailure {
    /// Which shard failed.
    pub shard: usize,
    /// How many times it was attempted.
    pub attempts: u32,
    /// The last panic's message.
    pub message: String,
}

impl std::fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} failed after {} attempts: {}",
            self.shard, self.attempts, self.message
        )
    }
}

impl std::error::Error for ShardFailure {}

/// Bounded retry budget for a panicking shard worker.
const SHARD_ATTEMPTS: u32 = 3;

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `work` up to `attempts` times, containing panics. Returns the
/// first success together with how many retries it took, or the last
/// panic's message as a [`ShardFailure`].
///
/// Shard generation is a pure function of its inputs, so a deterministic
/// panic recurs on every attempt; the retry budget exists for the
/// environmental failures (allocation pressure, injected test panics)
/// that containment is for.
pub(crate) fn contain_panics<T>(
    shard: usize,
    attempts: u32,
    work: impl Fn() -> T,
) -> Result<(T, u32), ShardFailure> {
    let mut message = String::new();
    for attempt in 0..attempts.max(1) {
        match catch_unwind(AssertUnwindSafe(&work)) {
            Ok(out) => return Ok((out, attempt)),
            Err(payload) => message = panic_message(payload.as_ref()),
        }
    }
    Err(ShardFailure {
        shard,
        attempts: attempts.max(1),
        message,
    })
}

/// Run one shard with panic containment and bounded retry. On success
/// after a retry, records the retry count under `faults.shard_retries`
/// (absent from fault-free runs, so clean snapshots stay unchanged).
fn run_shard_guarded(
    config: &GeneratorConfig,
    shard: usize,
    mix: &Mix,
) -> Result<GeneratedWorkload, ShardFailure> {
    let (mut workload, retries) = contain_panics(shard, SHARD_ATTEMPTS, || {
        run_shard(config, shard, mix.clone())
    })?;
    if retries > 0 {
        workload
            .metrics
            .set_counter("faults.shard_retries", u64::from(retries));
    }
    Ok(workload)
}

/// Run one shard to completion and rebase its identifiers.
fn run_shard(config: &GeneratorConfig, shard: usize, mix: Mix) -> GeneratedWorkload {
    let seed = derive_shard_seed(config.seed, shard as u64);
    let datasets = dataset_pool_size(config.scale / LOGICAL_SHARDS as f64);
    let mut workload = generate_with_mix(config.clone(), seed, datasets, mix);
    rebase_ids(&mut workload, shard);
    workload.metrics.set_counter(
        &format!("workload.shard{shard:02}.jobs"),
        workload.stats.jobs as u64,
    );
    workload.metrics.set_counter(
        &format!("workload.shard{shard:02}.requests"),
        workload.stats.requests,
    );
    workload
}

/// Generate the workload sharded, on up to `workers` threads.
///
/// The output is a pure function of `config` — `workers` only sets the
/// execution width (`0` and `1` both mean "run serially on the calling
/// thread"; anything larger is capped at [`LOGICAL_SHARDS`]). Workers
/// claim shards from a shared counter, so a slow shard (the one hosting
/// the out-of-core singleton) never blocks the others. A shard worker
/// that panics, even after its contained retries, surfaces as a
/// [`ShardFailure`] instead of tearing the process down.
pub fn try_generate_sharded(
    config: &GeneratorConfig,
    workers: usize,
) -> Result<ShardedWorkload, ShardFailure> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mix = Mix::plan(Scale(config.scale), &mut rng);
    let parts = partition_mix(&mix);

    // Shards come back in plan order, so the lowest shard's failure wins.
    let shards = claim_each(&parts, workers, |i, part| {
        run_shard_guarded(config, i, part)
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;

    let stats = merge_stats(&shards);
    let mut metrics = MetricsSnapshot::new();
    for shard in &shards {
        metrics.merge(&shard.metrics);
    }
    Ok(ShardedWorkload {
        shards,
        stats,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_trace::record::EventBody;

    fn config(scale: f64) -> GeneratorConfig {
        GeneratorConfig::test_scale(scale)
    }

    /// FNV-1a over the merged stream, for equality assertions.
    fn stream_hash(w: &ShardedWorkload) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for e in w.merged_events() {
            let mut mix = |v: u64| {
                for b in v.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            };
            mix(e.time.as_micros());
            mix(u64::from(e.node));
            mix(u64::from(e.body.tag()));
            match e.body {
                EventBody::Open { file, session, .. } => {
                    mix(u64::from(file));
                    mix(u64::from(session));
                }
                EventBody::Read {
                    session,
                    offset,
                    bytes,
                }
                | EventBody::Write {
                    session,
                    offset,
                    bytes,
                } => {
                    mix(u64::from(session));
                    mix(offset);
                    mix(u64::from(bytes));
                }
                EventBody::Close { session, size } => {
                    mix(u64::from(session));
                    mix(size);
                }
                EventBody::JobStart { job, .. } | EventBody::JobEnd { job } => mix(u64::from(job)),
                EventBody::Delete { job, file } => {
                    mix(u64::from(job));
                    mix(u64::from(file));
                }
            }
        }
        h
    }

    #[test]
    fn partition_is_a_cover_and_preserves_ids() {
        let mut rng = StdRng::seed_from_u64(9);
        let mix = Mix::plan(Scale(0.05), &mut rng);
        let parts = partition_mix(&mix);
        assert_eq!(parts.len(), LOGICAL_SHARDS);
        let mut ids: Vec<u32> = parts
            .iter()
            .flat_map(|p| p.jobs.iter().map(|j| j.id))
            .collect();
        ids.sort_unstable();
        let mut want: Vec<u32> = mix.jobs.iter().map(|j| j.id).collect();
        want.sort_unstable();
        assert_eq!(ids, want, "every job lands in exactly one shard");
    }

    #[test]
    fn worker_count_does_not_change_the_stream() {
        let serial = try_generate_sharded(&config(0.02), 1).expect("generates");
        let two = try_generate_sharded(&config(0.02), 2).expect("generates");
        let eight = try_generate_sharded(&config(0.02), 8).expect("generates");
        let h = stream_hash(&serial);
        assert_eq!(h, stream_hash(&two), "2 workers diverged from serial");
        assert_eq!(h, stream_hash(&eight), "8 workers diverged from serial");
        assert_eq!(serial.stats.jobs, eight.stats.jobs);
        assert_eq!(serial.stats.requests, eight.stats.requests);
    }

    #[test]
    fn shard_ids_are_disjoint_across_shards() {
        let w = try_generate_sharded(&config(0.02), 4).expect("generates");
        for (shard, g) in w.shards.iter().enumerate() {
            let base = shard_id_base(shard);
            for (_, e) in g.trace.raw_events() {
                if let EventBody::Open { file, session, .. } = e.body {
                    assert_eq!(file >> SHARD_ID_SHIFT, shard as u32, "file {file}");
                    assert_eq!(session >> SHARD_ID_SHIFT, shard as u32, "session {session}");
                    assert!(file >= base && session >= base);
                }
            }
        }
    }

    #[test]
    fn merged_stream_is_ordered_and_complete() {
        let w = try_generate_sharded(&config(0.02), 4).expect("generates");
        let merged: Vec<_> = w.merged_events().collect();
        assert_eq!(merged.len(), w.event_count());
        for pair in merged.windows(2) {
            assert!(
                (pair[0].time, pair[0].node) <= (pair[1].time, pair[1].node),
                "merged stream out of order"
            );
        }
        // Jobs remain globally unique: every start has exactly one end.
        let mut starts = std::collections::HashSet::new();
        for e in &merged {
            if let EventBody::JobStart { job, .. } = e.body {
                assert!(starts.insert(job), "job {job} started twice across shards");
            }
        }
        assert_eq!(starts.len(), w.stats.jobs);
    }

    #[test]
    fn merged_metrics_are_worker_count_invariant() {
        let serial = try_generate_sharded(&config(0.02), 1).expect("generates");
        let four = try_generate_sharded(&config(0.02), 4).expect("generates");
        assert_eq!(serial.metrics, four.metrics, "metrics diverged");
        // The full export (timings included) varies run to run, but the
        // deterministic core must be byte-identical.
        assert_eq!(serial.metrics.to_core_json(), four.metrics.to_core_json());
        // Per-shard keys survive the merge and sum to the total.
        let shard_jobs: u64 = (0..LOGICAL_SHARDS)
            .map(|i| serial.metrics.counters[&format!("workload.shard{i:02}.jobs")])
            .sum();
        assert_eq!(shard_jobs, serial.stats.jobs as u64);
        assert_eq!(
            serial.metrics.counters["workload.requests"],
            serial.stats.requests
        );
        assert!(serial.metrics.counters["engine.events_dispatched"] > 0);
        assert!(serial.metrics.counters["cfs.cache_hits"] > 0);
        assert!(serial.metrics.histograms["cfs.disk_service_us"].count > 0);
        assert!(serial.metrics.gauges["engine.queue_depth_high_water"] > 0);
    }

    #[test]
    fn contained_panic_retries_then_succeeds() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = AtomicU32::new(0);
        let out = contain_panics(3, 3, || {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("transient shard failure");
            }
            42u32
        });
        let (value, retries) = out.expect("third attempt succeeds");
        assert_eq!(value, 42);
        assert_eq!(retries, 2);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn persistent_panic_surfaces_as_shard_failure() {
        let err = contain_panics::<()>(7, 3, || panic!("wedged")).unwrap_err();
        assert_eq!(err.shard, 7);
        assert_eq!(err.attempts, 3);
        assert!(err.message.contains("wedged"), "{}", err.message);
        assert!(err.to_string().contains("shard 7"), "{err}");
    }

    #[test]
    fn fault_plan_outcome_is_worker_count_invariant() {
        use charisma_ipsc::FaultPlan;
        let mut cfg = config(0.01);
        cfg.faults = FaultPlan::chaos_fixture();
        let serial = try_generate_sharded(&cfg, 1).expect("generates");
        let four = try_generate_sharded(&cfg, 4).expect("generates");
        assert_eq!(
            stream_hash(&serial),
            stream_hash(&four),
            "chaos stream diverged across worker counts"
        );
        assert_eq!(serial.metrics.to_core_json(), four.metrics.to_core_json());
        assert!(
            serial.metrics.counters["faults.injected"] > 0,
            "the chaos fixture injects faults at this scale"
        );
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        use charisma_ipsc::FaultPlan;
        let clean = try_generate_sharded(&config(0.01), 2).expect("generates");
        let mut cfg = config(0.01);
        cfg.faults = FaultPlan::none();
        let with_empty_plan = try_generate_sharded(&cfg, 2).expect("generates");
        assert_eq!(stream_hash(&clean), stream_hash(&with_empty_plan));
        assert_eq!(
            clean.metrics.to_core_json(),
            with_empty_plan.metrics.to_core_json()
        );
        assert!(
            !clean.metrics.to_core_json().contains("faults."),
            "clean runs register no fault metrics"
        );
    }

    #[test]
    fn sharded_stats_roughly_match_monolithic() {
        let mono = crate::generate(config(0.05));
        let sharded = try_generate_sharded(&config(0.05), 4).expect("generates");
        assert_eq!(mono.stats.jobs, sharded.stats.jobs, "same planned jobs");
        assert_eq!(mono.stats.traced_jobs, sharded.stats.traced_jobs);
        // Sessions/requests drift slightly (independent per-shard RNG
        // streams resize template draws) but stay in the same regime.
        let ratio = sharded.stats.requests as f64 / mono.stats.requests.max(1) as f64;
        assert!((0.5..2.0).contains(&ratio), "request ratio {ratio}");
    }
}
