//! The generator: runs the job mix on the simulated machine and CFS, and
//! collects the CHARISMA trace exactly the way the paper's instrumentation
//! did (per-node buffers, service-node collector, drifting clocks).

use std::collections::HashMap;

use charisma_cfs::{Access, Cfs, CfsConfig, CfsError, CfsFaults, CfsMetrics, IoMode};
use charisma_ipsc::alloc::Subcube;
use charisma_ipsc::{
    faults, Duration, EventQueue, FaultMetrics, FaultPlan, Machine, MachineConfig, MachineMetrics,
    NetFaultState, QueueMetrics, SimTime,
};
use charisma_obs::{MetricsRegistry, MetricsSnapshot};
use charisma_trace::record::{AccessKind, EventBody, TraceHeader};
use charisma_trace::{Trace, TraceBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::apps::{self, FileOrigin, FileSpec};
use crate::mix::{Mix, Scale};
use crate::params;
use crate::program::{Op, Program};

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct GeneratorConfig {
    /// Workload scale: 1.0 reproduces the paper's full three-week
    /// population (~3000 jobs, ~60k file sessions, millions of requests);
    /// tests use small fractions.
    pub scale: f64,
    /// Master RNG seed (the default everywhere is 4994, for SC '94).
    pub seed: u64,
    /// Machine to simulate.
    pub machine: MachineConfig,
    /// File system to simulate.
    pub cfs: CfsConfig,
    /// Fault-injection plan. The default ([`FaultPlan::none`]) attaches
    /// no fault state at all: the generated trace and metrics snapshot
    /// are byte-identical to a build without the chaos layer.
    pub faults: FaultPlan,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            scale: 1.0,
            seed: 4994,
            machine: MachineConfig::nas_ipsc860(),
            cfs: CfsConfig::nas(),
            faults: FaultPlan::none(),
        }
    }
}

impl GeneratorConfig {
    /// A small configuration for tests: a fraction of the workload on the
    /// full machine.
    pub fn test_scale(scale: f64) -> Self {
        GeneratorConfig {
            scale,
            ..Default::default()
        }
    }
}

/// Aggregate facts about a generated workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct GenStats {
    /// Jobs that ran (traced and untraced).
    pub jobs: usize,
    /// Jobs whose I/O was traced.
    pub traced_jobs: usize,
    /// File-open sessions created by traced jobs.
    pub sessions: u64,
    /// Read + write requests issued by traced jobs.
    pub requests: u64,
    /// Simulated time when the last job finished.
    pub end_time: SimTime,
    /// Fraction of trace messages saved by the 4 KB node buffers.
    pub message_reduction: f64,
}

/// A generated workload: the collected trace plus bookkeeping.
#[derive(Clone, Debug)]
pub struct GeneratedWorkload {
    /// The collected (raw, unsorted) trace.
    pub trace: Trace,
    /// Aggregate facts.
    pub stats: GenStats,
    /// Snapshot of the generator's metrics registry: engine, machine, CFS,
    /// and workload counters. Deterministic for a fixed seed.
    pub metrics: MetricsSnapshot,
}

/// Run the generator.
pub fn generate(config: GeneratorConfig) -> GeneratedWorkload {
    Generator::new(config).run()
}

/// Run one shard: a pre-planned job subset on its own machine and CFS.
pub(crate) fn generate_with_mix(
    config: GeneratorConfig,
    seed: u64,
    dataset_count: usize,
    mix: Mix,
) -> GeneratedWorkload {
    Generator::with_mix(config, seed, dataset_count, mix).run()
}

// ---------------------------------------------------------------------------

/// Simulation events; jobs are addressed by their index in the plan.
#[derive(Debug)]
enum Ev {
    Arrival(usize),
    NodeStep { idx: usize, local: usize },
    UntracedEnd { idx: usize },
    Archive { files: Vec<u32> },
}

struct SlotState {
    path: String,
    /// Dataset-pool index, if the slot is a shared dataset.
    dataset: Option<usize>,
    session: Option<u32>,
    file: Option<u32>,
}

struct RunningJob {
    subcube: Subcube,
    programs: Vec<Program>,
    pc: Vec<usize>,
    slots: Vec<SlotState>,
    /// Barrier id → locals arrived so far.
    barriers: HashMap<u32, Vec<usize>>,
    active_nodes: usize,
    /// Files to archive (delete untraced) after the job.
    cleanup: Vec<u32>,
}

struct Dataset {
    file: u32,
    size: u64,
    in_use: bool,
}

/// Size of the shared-dataset pool staged before tracing begins, for a
/// generator hosting `scale` worth of the job population.
pub(crate) fn dataset_pool_size(scale: f64) -> usize {
    let count = ((params::DATASET_FILES as f64) * scale.clamp(0.1, 1.0)).round() as usize;
    count.max(4)
}

struct Generator {
    /// RNG seed for this generator's machine boot and dataset staging (the
    /// config seed for the monolithic path; a shard-derived seed when
    /// sharded).
    seed: u64,
    /// Shared-dataset pool size to stage.
    dataset_count: usize,
    machine: Machine,
    cfs: Cfs,
    trace: Option<TraceBuilder>,
    queue: EventQueue<Ev>,
    mix: Mix,
    /// Running jobs by plan index.
    running: Vec<Option<RunningJob>>,
    waiting: Vec<usize>,
    datasets: Vec<Dataset>,
    next_dataset: usize,
    stats: GenStats,
    /// Per-generator registry: every subsystem this generator owns reports
    /// here, so sharded runs produce one mergeable snapshot per shard. The
    /// machine, queue and CFS publish into it when they are dropped.
    metrics: MetricsRegistry,
}

impl Generator {
    fn new(config: GeneratorConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let machine = Machine::boot(config.machine.clone(), &mut rng);
        let mix = Mix::plan(Scale(config.scale), &mut rng);
        let seed = config.seed;
        let dataset_count = dataset_pool_size(config.scale);
        Self::from_parts(config, seed, dataset_count, machine, mix)
    }

    /// Build a generator over a pre-planned job set.
    ///
    /// This is the sharded entry point: the caller plans the global mix
    /// once, partitions it, and hands each shard its own sub-mix plus a
    /// shard-derived `seed` (used for the machine's clock drifts, the
    /// dataset staging, and the trace header's provenance field). The
    /// shard's dataset pool is sized by the caller — a shard hosts only a
    /// fraction of the jobs, so it needs only a fraction of the pool.
    pub(crate) fn with_mix(
        config: GeneratorConfig,
        seed: u64,
        dataset_count: usize,
        mix: Mix,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let machine = Machine::boot(config.machine.clone(), &mut rng);
        Self::from_parts(config, seed, dataset_count, machine, mix)
    }

    fn from_parts(
        config: GeneratorConfig,
        seed: u64,
        dataset_count: usize,
        mut machine: Machine,
        mix: Mix,
    ) -> Self {
        let metrics = MetricsRegistry::new();
        machine.attach_metrics(MachineMetrics::register(&metrics));
        let mut cfs = Cfs::new(config.cfs.clone());
        cfs.attach_metrics(CfsMetrics::register(&metrics));
        if !config.faults.is_empty() {
            // Fault decisions draw from a dedicated seed stream mixed
            // from the plan seed and this generator's (shard-derived)
            // seed: injection never perturbs the workload RNG, and the
            // outcome is identical for every worker count. Clock jumps
            // must land before the TraceBuilder copies the clocks below.
            let fseed = faults::mix_seed(config.faults.seed, seed);
            let fm = FaultMetrics::register(&metrics);
            machine.apply_clock_faults(&config.faults, fseed, mix.trace_len, Some(&fm));
            machine.attach_faults(NetFaultState::new(&config.faults, fseed, Some(fm.clone())));
            cfs.attach_faults(CfsFaults::new(&config.faults, fseed, Some(fm)));
        }
        let header = TraceHeader {
            version: TraceHeader::VERSION,
            compute_nodes: config.machine.compute_nodes() as u32,
            io_nodes: config.machine.io_nodes as u32,
            block_bytes: 4096,
            seed,
        };
        let clocks = (0..config.machine.compute_nodes())
            .map(|n| *machine.clock(n))
            .collect();
        let latencies = (0..config.machine.compute_nodes())
            .map(|n| machine.service_message_latency(n, 4096))
            .collect();
        let trace = TraceBuilder::new(header, clocks, *machine.service_clock(), latencies);
        let mut queue = EventQueue::with_capacity(mix.jobs.len() + 1);
        let running = std::iter::repeat_with(|| None)
            .take(mix.jobs.len())
            .collect();
        queue.attach_metrics(QueueMetrics::register(&metrics));
        Generator {
            seed,
            dataset_count,
            machine,
            cfs,
            trace: Some(trace),
            queue,
            mix,
            running,
            waiting: Vec::new(),
            datasets: Vec::new(),
            next_dataset: 0,
            stats: GenStats::default(),
            metrics,
        }
    }

    fn run(mut self) -> GeneratedWorkload {
        self.seed_datasets();
        for (i, job) in self.mix.jobs.iter().enumerate() {
            self.queue.push(job.arrival, Ev::Arrival(i));
        }
        let mut end = SimTime::ZERO;
        while let Some((t, ev)) = self.queue.pop() {
            end = end.max(t);
            match ev {
                Ev::Arrival(i) => self.try_start(i, t),
                Ev::NodeStep { idx, local } => self.step_node(idx, local, t),
                Ev::UntracedEnd { idx } => self.finish_job(idx, t),
                Ev::Archive { files } => {
                    for f in files {
                        // Temporaries may already be gone.
                        let _ = self.cfs.delete(f);
                    }
                }
            }
        }
        self.stats.jobs = self.mix.jobs.len();
        self.stats.traced_jobs = self.mix.traced_jobs();
        self.stats.end_time = end;
        let trace = self.trace.take().expect("builder present");
        self.stats.message_reduction = trace.message_reduction();
        let Generator {
            machine,
            cfs,
            queue,
            stats,
            metrics,
            ..
        } = self;
        // The simulators publish their tallies into `metrics` as they drop.
        drop((machine, cfs, queue));
        metrics.counter("workload.jobs").add(stats.jobs as u64);
        metrics
            .counter("workload.traced_jobs")
            .add(stats.traced_jobs as u64);
        metrics.counter("workload.sessions").add(stats.sessions);
        metrics.counter("workload.requests").add(stats.requests);
        GeneratedWorkload {
            trace: trace.finish(end),
            stats,
            metrics: metrics.snapshot(),
        }
    }

    /// Stage the shared dataset files before tracing begins (untraced:
    /// they were written before the instrumentation window, or arrived by
    /// Ethernet from the host).
    fn seed_datasets(&mut self) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xda7a);
        for i in 0..self.dataset_count {
            let size = params::draw_mix(&params::INPUT_SIZE_MIX, &mut rng);
            let path = format!("dataset/{i}");
            let open = self
                .cfs
                .open(
                    u32::MAX,
                    &path,
                    Access::Write,
                    IoMode::Independent,
                    0,
                    false,
                )
                .expect("dataset creation");
            let mut written = 0u64;
            while written < size {
                let chunk = (size - written).min(1 << 20) as u32;
                if self
                    .cfs
                    .write(&self.machine, open.session, 0, chunk, SimTime::ZERO)
                    .is_err()
                {
                    // Out of space or every stripe target down: stage what
                    // fit. Jobs read whatever the dataset ended up holding.
                    break;
                }
                written += u64::from(chunk);
            }
            self.cfs.close(open.session, 0).expect("dataset close");
            self.datasets.push(Dataset {
                file: open.file,
                size,
                in_use: false,
            });
        }
    }

    fn try_start(&mut self, plan_idx: usize, t: SimTime) {
        let plan = &self.mix.jobs[plan_idx];
        let job = plan.id;
        let nodes = plan.nodes as usize;
        let Some(subcube) = self.machine.allocator_mut().allocate_nodes(nodes) else {
            self.waiting.push(plan_idx);
            return;
        };
        let traced = plan.class.traced();
        self.log_service(
            t,
            EventBody::JobStart {
                job,
                nodes: nodes as u16,
                traced,
            },
        );
        if !traced {
            let end = t + self.mix.jobs[plan_idx].untraced_duration;
            self.running[plan_idx] = Some(RunningJob {
                subcube,
                programs: Vec::new(),
                pc: Vec::new(),
                slots: Vec::new(),
                barriers: HashMap::new(),
                active_nodes: 0,
                cleanup: Vec::new(),
            });
            self.queue.push(end, Ev::UntracedEnd { idx: plan_idx });
            return;
        }

        // Resolve the file table: datasets, staged inputs, fresh paths.
        let plan = self.mix.jobs[plan_idx].clone();
        let specs = apps::file_table(&plan);
        let mut slots = Vec::with_capacity(specs.len());
        let mut sizes = Vec::with_capacity(specs.len());
        let mut cleanup = Vec::new();
        for (idx, spec) in specs.iter().enumerate() {
            let (state, size) = self.resolve_slot(job, idx, spec, &mut cleanup);
            sizes.push(size);
            slots.push(state);
        }
        let programs = apps::build_programs(&plan, &sizes);
        let pc = vec![0; programs.len()];
        self.running[plan_idx] = Some(RunningJob {
            subcube,
            programs,
            pc,
            slots,
            barriers: HashMap::new(),
            active_nodes: nodes,
            cleanup,
        });
        for local in 0..nodes {
            self.queue.push(
                t + Duration::from_micros(local as u64),
                Ev::NodeStep {
                    idx: plan_idx,
                    local,
                },
            );
        }
    }

    fn resolve_slot(
        &mut self,
        job: u32,
        idx: usize,
        spec: &FileSpec,
        cleanup: &mut Vec<u32>,
    ) -> (SlotState, u64) {
        match spec.origin {
            FileOrigin::SharedDataset => {
                // Pick the next free dataset (round-robin); never share one
                // between concurrent jobs.
                let n = self.datasets.len();
                let mut pick = None;
                for k in 0..n {
                    let cand = (self.next_dataset + k) % n;
                    if !self.datasets[cand].in_use {
                        pick = Some(cand);
                        break;
                    }
                }
                let pick = pick.unwrap_or(self.next_dataset % n);
                self.next_dataset = pick + 1;
                self.datasets[pick].in_use = true;
                (
                    SlotState {
                        path: format!("dataset/{pick}"),
                        dataset: Some(pick),
                        session: None,
                        file: Some(self.datasets[pick].file),
                    },
                    self.datasets[pick].size,
                )
            }
            FileOrigin::Staged { size } => {
                let path = format!("job{job}/{}{idx}", spec.hint);
                let open = self
                    .cfs
                    .open(
                        u32::MAX,
                        &path,
                        Access::Write,
                        IoMode::Independent,
                        0,
                        false,
                    )
                    .expect("staging open");
                // Out of space or every stripe target down: stage a short
                // input; reads past its end clamp to the actual size.
                let _ = self
                    .cfs
                    .write(&self.machine, open.session, 0, size as u32, SimTime::ZERO);
                self.cfs.close(open.session, 0).expect("staging close");
                cleanup.push(open.file);
                (
                    SlotState {
                        path,
                        dataset: None,
                        session: None,
                        file: Some(open.file),
                    },
                    size,
                )
            }
            FileOrigin::Fresh => (
                SlotState {
                    path: format!("job{job}/{}{idx}", spec.hint),
                    dataset: None,
                    session: None,
                    file: None,
                },
                0,
            ),
        }
    }

    /// Execute ops for node `local` of the job at plan index `idx` until
    /// one blocks; schedule the next step.
    fn step_node(&mut self, idx: usize, local: usize, t: SimTime) {
        let job = self.mix.jobs[idx].id;
        loop {
            // Fetch the next op, releasing the borrow before acting on it.
            let (op, node) = {
                let Some(run) = &mut self.running[idx] else {
                    return;
                };
                if run.pc[local] >= run.programs[local].ops.len() {
                    run.active_nodes -= 1;
                    if run.active_nodes == 0 {
                        self.finish_job(idx, t);
                    }
                    return;
                }
                let op = run.programs[local].ops[run.pc[local]].clone();
                run.pc[local] += 1;
                (op, run.subcube.base + local)
            };
            match op {
                Op::Compute(d) => {
                    self.queue.push(t + d, Ev::NodeStep { idx, local });
                    return;
                }
                Op::Open {
                    slot,
                    access,
                    mode,
                    truncate,
                } => {
                    let path = self.run_mut(idx).slots[slot as usize].path.clone();
                    let open = self
                        .cfs
                        .open(job, &path, access, mode, node as u16, truncate)
                        .expect("template opens are well-formed");
                    let run = self.run_mut(idx);
                    let s = &mut run.slots[slot as usize];
                    s.session = Some(open.session);
                    let is_dataset = s.dataset.is_some();
                    s.file = Some(open.file);
                    if open.created && !is_dataset && !run.cleanup.contains(&open.file) {
                        // Track job-created files for archiving, once.
                        run.cleanup.push(open.file);
                    }
                    let kind = match access {
                        Access::Read => AccessKind::Read,
                        Access::Write => AccessKind::Write,
                        Access::ReadWrite => AccessKind::ReadWrite,
                    };
                    self.stats.sessions += 1;
                    self.log_node(
                        node,
                        t,
                        EventBody::Open {
                            job,
                            file: open.file,
                            session: open.session,
                            mode: mode.code(),
                            access: kind,
                            created: open.created,
                        },
                    );
                    // Opens cost a round trip to the I/O subsystem.
                    let cost = Duration::from_millis(3);
                    self.queue.push(t + cost, Ev::NodeStep { idx, local });
                    return;
                }
                Op::Seek { slot, offset } => {
                    let session = self.slot_session(idx, slot);
                    self.cfs
                        .seek(session, node as u16, offset)
                        .expect("seek is valid");
                    // Seeks are client-local: free, keep executing.
                }
                Op::Read { slot, bytes } => {
                    let session = self.slot_session(idx, slot);
                    match self.cfs.read(&self.machine, session, node as u16, bytes, t) {
                        Ok(out) => {
                            self.stats.requests += 1;
                            self.log_node(
                                node,
                                t,
                                EventBody::Read {
                                    session,
                                    offset: out.offset,
                                    bytes: out.bytes,
                                },
                            );
                            self.queue.push(out.completion, Ev::NodeStep { idx, local });
                            return;
                        }
                        Err(CfsError::Degraded { .. }) => {
                            // Every replica of a stripe is down: the read
                            // fails back to the application, which skips
                            // it and keeps going (degraded mode).
                            continue;
                        }
                        Err(e) => panic!("unexpected CFS error: {e}"),
                    }
                }
                Op::Write { slot, bytes } => {
                    let session = self.slot_session(idx, slot);
                    match self
                        .cfs
                        .write(&self.machine, session, node as u16, bytes, t)
                    {
                        Ok(out) => {
                            self.stats.requests += 1;
                            self.log_node(
                                node,
                                t,
                                EventBody::Write {
                                    session,
                                    offset: out.offset,
                                    bytes: out.bytes,
                                },
                            );
                            self.queue.push(out.completion, Ev::NodeStep { idx, local });
                            return;
                        }
                        Err(CfsError::NoSpace { .. }) | Err(CfsError::Degraded { .. }) => {
                            // Disk full (users of the real machine hit
                            // this too — §4.2 suspects capacity limited
                            // file sizes) or every target I/O node down:
                            // the job skips the write and keeps going.
                            continue;
                        }
                        Err(e) => panic!("unexpected CFS error: {e}"),
                    }
                }
                Op::Close { slot } => {
                    let session = self.slot_session(idx, slot);
                    let size = self.cfs.close(session, node as u16).expect("close valid");
                    self.log_node(node, t, EventBody::Close { session, size });
                }
                Op::Delete { slot } => {
                    let file = self.run_mut(idx).slots[slot as usize]
                        .file
                        .expect("delete after open");
                    self.cfs.delete(file).expect("delete valid");
                    self.log_node(node, t, EventBody::Delete { job, file });
                }
                Op::Barrier(id) => {
                    let run = self.run_mut(idx);
                    let total = run.programs.len();
                    let arrived = run.barriers.entry(id).or_default();
                    arrived.push(local);
                    if arrived.len() == total {
                        let mut locals = run.barriers.remove(&id).expect("entry");
                        locals.sort_unstable();
                        for (k, l) in locals.into_iter().enumerate() {
                            self.queue.push(
                                t + Duration::from_micros(k as u64),
                                Ev::NodeStep { idx, local: l },
                            );
                        }
                    }
                    return;
                }
                Op::AwaitTurn { .. } => {
                    // Turn order is realized by barrier-per-round plus
                    // deterministic FIFO scheduling; nothing to wait for.
                }
            }
        }
    }

    /// The running job at plan index `idx`.
    fn run_mut(&mut self, idx: usize) -> &mut RunningJob {
        self.running[idx].as_mut().expect("running")
    }

    fn slot_session(&mut self, idx: usize, slot: u16) -> u32 {
        self.run_mut(idx).slots[slot as usize]
            .session
            .expect("request after open")
    }

    fn finish_job(&mut self, idx: usize, t: SimTime) {
        let Some(run) = self.running[idx].take() else {
            return;
        };
        let job = self.mix.jobs[idx].id;
        self.log_service(t, EventBody::JobEnd { job });
        self.machine.allocator_mut().release(run.subcube);
        for slot in &run.slots {
            if let Some(d) = slot.dataset {
                self.datasets[d].in_use = false;
            }
        }
        if !run.cleanup.is_empty() {
            self.queue.push(
                t + params::ARCHIVE_AFTER,
                Ev::Archive { files: run.cleanup },
            );
        }
        // Node space freed: retry waiting jobs (FIFO).
        let waiting = std::mem::take(&mut self.waiting);
        for idx in waiting {
            self.try_start(idx, t);
        }
    }

    fn log_node(&mut self, node: usize, t: SimTime, body: EventBody) {
        self.trace
            .as_mut()
            .expect("builder present")
            .log(node, t, body);
    }

    fn log_service(&mut self, t: SimTime, body: EventBody) {
        self.trace
            .as_mut()
            .expect("builder present")
            .log_service(t, body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charisma_trace::postprocess;

    fn small() -> GeneratedWorkload {
        generate(GeneratorConfig::test_scale(0.02))
    }

    #[test]
    fn generates_a_nonempty_trace() {
        let w = small();
        assert!(w.trace.event_count() > 1000, "{}", w.trace.event_count());
        assert!(w.stats.sessions > 100);
        assert!(w.stats.requests > 500);
        assert!(w.stats.end_time > SimTime::from_hours(1));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(GeneratorConfig::test_scale(0.01));
        let b = generate(GeneratorConfig::test_scale(0.01));
        assert_eq!(a.trace.event_count(), b.trace.event_count());
        assert_eq!(a.trace.blocks.len(), b.trace.blocks.len());
        // Spot-check exact equality of a few blocks.
        for (x, y) in a.trace.blocks.iter().zip(&b.trace.blocks).take(20) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn every_job_starts_and_ends() {
        let w = small();
        let mut starts = std::collections::HashSet::new();
        let mut ends = std::collections::HashSet::new();
        for (_, e) in w.trace.raw_events() {
            match e.body {
                EventBody::JobStart { job, .. } => {
                    assert!(starts.insert(job), "job {job} started twice");
                }
                EventBody::JobEnd { job } => {
                    assert!(ends.insert(job), "job {job} ended twice");
                }
                _ => {}
            }
        }
        assert_eq!(starts, ends, "every started job ends");
        assert_eq!(starts.len(), w.stats.jobs);
    }

    #[test]
    fn sessions_open_and_close_consistently() {
        let w = small();
        let mut opens: HashMap<u32, i64> = HashMap::new();
        for (_, e) in w.trace.raw_events() {
            match e.body {
                EventBody::Open { session, .. } => *opens.entry(session).or_insert(0) += 1,
                EventBody::Close { session, .. } => *opens.entry(session).or_insert(0) -= 1,
                _ => {}
            }
        }
        assert!(!opens.is_empty());
        let unbalanced = opens.values().filter(|&&v| v != 0).count();
        assert_eq!(unbalanced, 0, "all sessions fully closed");
    }

    #[test]
    fn requests_reference_open_sessions() {
        let w = small();
        let ordered = postprocess(&w.trace);
        let mut live: std::collections::HashMap<u32, u32> = HashMap::new();
        let mut errors = 0;
        for e in &ordered {
            match e.body {
                EventBody::Open { session, .. } => *live.entry(session).or_insert(0) += 1,
                EventBody::Close { session, .. } => {
                    *live.entry(session).or_insert(1) -= 1;
                }
                EventBody::Read { session, .. } | EventBody::Write { session, .. }
                    // Post-processed order is approximate; count, don't
                    // assert, misorderings.
                    if live.get(&session).copied().unwrap_or(0) == 0 => {
                        errors += 1;
                    }
                _ => {}
            }
        }
        let total: usize = ordered.len();
        assert!(
            errors * 50 < total,
            "{errors}/{total} requests outside open windows (ordering noise)"
        );
    }

    #[test]
    fn trace_buffering_saves_messages() {
        let w = small();
        assert!(
            w.stats.message_reduction > 0.9,
            "paper: >90% message reduction; got {}",
            w.stats.message_reduction
        );
    }

    #[test]
    fn deletes_only_follow_creates() {
        let w = small();
        let mut created = std::collections::HashSet::new();
        let mut created_by: HashMap<u32, u32> = HashMap::new();
        let mut temp = 0u32;
        for (_, e) in w.trace.raw_events() {
            match e.body {
                EventBody::Open {
                    job,
                    file,
                    created: c,
                    ..
                } if c => {
                    created.insert(file);
                    created_by.insert(file, job);
                }
                EventBody::Delete { job, file } => {
                    // Traced deletes come from the out-of-core app deleting
                    // its own temporaries.
                    assert_eq!(created_by.get(&file), Some(&job));
                    temp += 1;
                }
                _ => {}
            }
        }
        assert!(temp > 0, "temporary files exist at this scale");
    }
}
