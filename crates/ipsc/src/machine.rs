//! Machine configuration: the NAS iPSC/860.
//!
//! "Their iPSC has 128 compute nodes, each with 8 MB of memory, and 10 I/O
//! nodes, each with 4 MB of memory and a single 760 MB disk drive. There is
//! also a single service node that handles a 10-Mbit Ethernet connection to
//! the host computer. The total I/O capacity is 7.6 GB and the total
//! bandwidth is less than 10 MB/s." (paper §3)

use std::cell::Cell;

use charisma_obs::{Counter, Gauge, Histogram, HistogramTally, MetricsRegistry};
use rand::Rng;

use crate::alloc::SubcubeAllocator;
use crate::clock::DriftClock;
use crate::faults::{domain, FaultMetrics, FaultPlan, FaultRng, NetFaultState};
use crate::message::{Message, NetworkModel};
use crate::time::{Duration, SimTime};
use crate::topology::Hypercube;

/// Address of a compute node (an address within the hypercube).
pub type NodeId = usize;

/// Index of an I/O node (0-based; I/O nodes are *not* hypercube members —
/// each hangs off one compute node).
pub type IoNodeId = usize;

/// Static description of an iPSC/860 installation.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Hypercube dimension; `2^dim` compute nodes.
    pub cube_dim: u32,
    /// Number of I/O nodes, each with one disk.
    pub io_nodes: usize,
    /// Compute-node memory, bytes (8 MB at NAS).
    pub compute_mem_bytes: u64,
    /// I/O-node memory, bytes (4 MB at NAS).
    pub io_mem_bytes: u64,
    /// Per-disk capacity, bytes (760 MB at NAS).
    pub disk_capacity_bytes: u64,
    /// Network latency model.
    pub network: NetworkModel,
    /// Maximum clock drift magnitude assigned to a node, ppm.
    pub max_clock_drift_ppm: f64,
    /// Maximum boot-time clock offset magnitude, µs.
    pub max_clock_offset_us: f64,
}

impl MachineConfig {
    /// The NASA Ames NAS configuration traced by the paper.
    pub fn nas_ipsc860() -> Self {
        MachineConfig {
            cube_dim: 7,
            io_nodes: 10,
            compute_mem_bytes: 8 << 20,
            io_mem_bytes: 4 << 20,
            disk_capacity_bytes: 760 << 20,
            network: NetworkModel::default(),
            max_clock_drift_ppm: 80.0,
            max_clock_offset_us: 5_000.0,
        }
    }

    /// A scaled-down machine for unit and integration tests: 8 compute
    /// nodes, 2 I/O nodes, small disks.
    pub fn tiny() -> Self {
        MachineConfig {
            cube_dim: 3,
            io_nodes: 2,
            compute_mem_bytes: 1 << 20,
            io_mem_bytes: 1 << 20,
            disk_capacity_bytes: 8 << 20,
            network: NetworkModel::default(),
            max_clock_drift_ppm: 80.0,
            max_clock_offset_us: 5_000.0,
        }
    }

    /// Number of compute nodes.
    pub fn compute_nodes(&self) -> usize {
        1usize << self.cube_dim
    }
}

/// Metric handles a [`Machine`] reports through once attached with
/// [`Machine::attach_metrics`]. Clock extremes are recorded at attach time
/// (the clocks are fixed at boot); message, packet and hop counts are
/// published once, when the machine is dropped.
#[derive(Clone, Debug, Default)]
pub struct MachineMetrics {
    /// Messages routed through the latency model.
    pub messages_routed: Counter,
    /// 4 KB packets those messages occupied.
    pub packets_routed: Counter,
    /// Distribution of route lengths, in hops.
    pub route_hops: Histogram,
    /// Largest clock drift magnitude across nodes, parts per billion.
    pub clock_drift_ppb_max: Gauge,
    /// Largest boot-time clock offset magnitude across nodes, µs.
    pub clock_offset_us_max: Gauge,
}

impl MachineMetrics {
    /// Handles registered under the `machine.` prefix of `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        MachineMetrics {
            messages_routed: registry.counter("machine.messages_routed"),
            packets_routed: registry.counter("machine.packets_routed"),
            route_hops: registry.histogram("machine.route_hops"),
            clock_drift_ppb_max: registry.gauge("machine.clock_drift_ppb_max"),
            clock_offset_us_max: registry.gauge("machine.clock_offset_us_max"),
        }
    }
}

/// The routing counts a [`Machine`] publishes when dropped. They sit in
/// cells because latency queries take `&self`. A clone starts from zero,
/// so every machine publishes only the messages it routed itself.
#[derive(Debug, Default)]
struct RouteTally {
    messages: Cell<u64>,
    packets: Cell<u64>,
    hops: HistogramTally,
}

impl Clone for RouteTally {
    fn clone(&self) -> Self {
        RouteTally::default()
    }
}

/// A live machine instance: topology, allocator, and per-node clocks.
#[derive(Clone, Debug)]
pub struct Machine {
    config: MachineConfig,
    cube: Hypercube,
    allocator: SubcubeAllocator,
    /// Clock of each compute node, indexed by `NodeId`.
    clocks: Vec<DriftClock>,
    /// Clock of the service node (the trace collector's reference clock).
    service_clock: DriftClock,
    routes: RouteTally,
    metrics: Option<MachineMetrics>,
    faults: Option<NetFaultState>,
}

impl Machine {
    /// Boot a machine, drawing per-node clock drifts and offsets from `rng`.
    pub fn boot<R: Rng>(config: MachineConfig, rng: &mut R) -> Self {
        let cube = Hypercube::new(config.cube_dim);
        let clocks = (0..config.compute_nodes())
            .map(|_| {
                DriftClock::new(
                    rng.gen_range(-config.max_clock_drift_ppm..=config.max_clock_drift_ppm),
                    rng.gen_range(-config.max_clock_offset_us..=config.max_clock_offset_us),
                )
            })
            .collect();
        let allocator = SubcubeAllocator::new(config.cube_dim);
        Machine {
            cube,
            allocator,
            clocks,
            // The collector's clock is the reference frame the paper's
            // postprocessing corrects *to*; give it a small offset too.
            service_clock: DriftClock::PERFECT,
            config,
            routes: RouteTally::default(),
            metrics: None,
            faults: None,
        }
    }

    /// Boot with perfectly synchronized clocks (useful in tests that don't
    /// exercise drift correction).
    pub fn boot_synchronized(config: MachineConfig) -> Self {
        let cube = Hypercube::new(config.cube_dim);
        let clocks = vec![DriftClock::PERFECT; config.compute_nodes()];
        let allocator = SubcubeAllocator::new(config.cube_dim);
        Machine {
            cube,
            allocator,
            clocks,
            service_clock: DriftClock::PERFECT,
            config,
            routes: RouteTally::default(),
            metrics: None,
            faults: None,
        }
    }

    /// Report clock extremes and message routing through `metrics`. Clock
    /// extremes are recorded immediately (clocks are fixed at boot). The
    /// machine counts messages, packets and hops in plain cells whether or
    /// not metrics are attached, and publishes its lifetime totals into
    /// `metrics` once, when it is dropped.
    pub fn attach_metrics(&mut self, metrics: MachineMetrics) {
        for clock in &self.clocks {
            metrics
                .clock_drift_ppb_max
                .record_max((clock.drift_ppm.abs() * 1000.0).round() as u64);
            metrics
                .clock_offset_us_max
                .record_max(clock.offset_us.abs().round() as u64);
        }
        self.metrics = Some(metrics);
    }

    /// Inject network faults (message delay/drop/duplication) into every
    /// latency query from now on. Attaching an inactive state is allowed
    /// but pointless; callers normally gate on `FaultPlan::is_empty`.
    pub fn attach_faults(&mut self, faults: NetFaultState) {
        self.faults = Some(faults);
    }

    /// Apply the plan's clock-jump faults to the per-node clocks: each
    /// node's fate (whether it jumps, when, and by how much) is a pure
    /// hash of `(fault_seed, node)`, with jump times drawn from
    /// `[1, horizon)`. Call before any local timestamps are taken.
    pub fn apply_clock_faults(
        &mut self,
        plan: &FaultPlan,
        fault_seed: u64,
        horizon: SimTime,
        metrics: Option<&FaultMetrics>,
    ) {
        if plan.clock_jump_ppm == 0 || plan.clock_jump_max_us == 0 {
            return;
        }
        let rng = FaultRng::new(fault_seed);
        for (node, clock) in self.clocks.iter_mut().enumerate() {
            let id = node as u64;
            if !rng.chance(plan.clock_jump_ppm, domain::CLOCK_FATE, &[id]) {
                continue;
            }
            let span = horizon.as_micros().saturating_sub(1);
            let at = rng.bounded(span, domain::CLOCK_AT, &[id]).max(1);
            let jump = rng.bounded(
                plan.clock_jump_max_us.saturating_sub(1),
                domain::CLOCK_DELTA,
                &[id],
            ) + 1;
            *clock = clock.with_jump(at, jump);
            if let Some(m) = metrics {
                m.clock_jumps.inc();
                m.injected.inc();
            }
        }
    }

    fn fault_extra(&self, src: NodeId, dst: NodeId, bytes: u64) -> Duration {
        match &self.faults {
            Some(f) => Duration::from_micros(f.message_extra_us(src as u64, dst as u64, bytes)),
            None => Duration::from_micros(0),
        }
    }

    fn note_message(&self, msg: &Message, hops: u32) {
        let r = &self.routes;
        r.messages.set(r.messages.get() + 1);
        r.packets.set(r.packets.get() + msg.packets());
        r.hops.record(u64::from(hops));
    }

    /// The static configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The hypercube interconnect.
    pub fn cube(&self) -> Hypercube {
        self.cube
    }

    /// The subcube allocator (jobs allocate and release through this).
    pub fn allocator_mut(&mut self) -> &mut SubcubeAllocator {
        &mut self.allocator
    }

    /// The clock of compute node `node`.
    pub fn clock(&self, node: NodeId) -> &DriftClock {
        &self.clocks[node]
    }

    /// The service node's (collector's) clock.
    pub fn service_clock(&self) -> &DriftClock {
        &self.service_clock
    }

    /// The compute node that I/O node `io` hangs off.
    ///
    /// On the NAS machine each I/O node was "connected to a single compute
    /// node rather than directly to the hypercube interconnect". We spread
    /// the attachment points evenly across the cube.
    pub fn io_attachment(&self, io: IoNodeId) -> NodeId {
        assert!(io < self.config.io_nodes, "I/O node {io} out of range");
        io * self.config.compute_nodes() / self.config.io_nodes
    }

    /// Network hops from compute node `src` to I/O node `io`: the e-cube
    /// route to the attachment node plus the dedicated final link.
    pub fn hops_to_io(&self, src: NodeId, io: IoNodeId) -> u32 {
        self.cube.distance(src, self.io_attachment(io)) + 1
    }

    /// Latency of a `bytes`-byte message from compute node `src` to I/O
    /// node `io` (or the reverse — the model is symmetric).
    pub fn io_message_latency(&self, src: NodeId, io: IoNodeId, bytes: u64) -> Duration {
        let msg = Message {
            src,
            dst: self.io_attachment(io),
            bytes,
        };
        let hops = self.hops_to_io(src, io);
        self.note_message(&msg, hops);
        self.config.network.latency(&msg, hops) + self.fault_extra(msg.src, msg.dst, bytes)
    }

    /// Latency of a compute-node-to-service-node message (trace flushes).
    pub fn service_message_latency(&self, src: NodeId, bytes: u64) -> Duration {
        // The service node also hangs off a compute node; use address 0.
        let msg = Message { src, dst: 0, bytes };
        let hops = self.cube.distance(src, 0) + 1;
        self.note_message(&msg, hops);
        self.config.network.latency(&msg, hops) + self.fault_extra(src, 0, bytes)
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        if let Some(m) = &self.metrics {
            m.messages_routed.add(self.routes.messages.get());
            m.packets_routed.add(self.routes.packets.get());
            m.route_hops.absorb(&self.routes.hops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nas_config_matches_paper() {
        let c = MachineConfig::nas_ipsc860();
        assert_eq!(c.compute_nodes(), 128);
        assert_eq!(c.io_nodes, 10);
        assert_eq!(c.compute_mem_bytes, 8 << 20);
        assert_eq!(c.io_mem_bytes, 4 << 20);
        // Total capacity 7.6 GB, per paper.
        let total = c.disk_capacity_bytes * c.io_nodes as u64;
        assert_eq!(total, 7600 << 20);
    }

    #[test]
    fn boot_assigns_distinct_clocks() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Machine::boot(MachineConfig::nas_ipsc860(), &mut rng);
        let drifts: Vec<_> = (0..128).map(|n| m.clock(n).drift_ppm).collect();
        let distinct = drifts
            .iter()
            .filter(|&&d| (d - drifts[0]).abs() > 1e-9)
            .count();
        assert!(distinct > 100, "clocks must drift differently");
        for d in drifts {
            assert!(d.abs() <= 80.0);
        }
    }

    #[test]
    fn boot_is_deterministic_per_seed() {
        let m1 = Machine::boot(MachineConfig::tiny(), &mut StdRng::seed_from_u64(7));
        let m2 = Machine::boot(MachineConfig::tiny(), &mut StdRng::seed_from_u64(7));
        for n in 0..8 {
            assert_eq!(m1.clock(n), m2.clock(n));
        }
    }

    #[test]
    fn io_attachments_are_spread_and_valid() {
        let m = Machine::boot_synchronized(MachineConfig::nas_ipsc860());
        let mut seen = std::collections::BTreeSet::new();
        for io in 0..10 {
            let at = m.io_attachment(io);
            assert!(m.cube().contains(at));
            assert!(seen.insert(at), "attachment points must be distinct");
        }
    }

    #[test]
    fn io_hops_include_final_link() {
        let m = Machine::boot_synchronized(MachineConfig::nas_ipsc860());
        let at = m.io_attachment(3);
        assert_eq!(m.hops_to_io(at, 3), 1, "attached node is one hop away");
        assert!(m.hops_to_io(at ^ 1, 3) == 2);
    }

    #[test]
    fn message_latency_positive_and_monotone() {
        let m = Machine::boot_synchronized(MachineConfig::nas_ipsc860());
        let small = m.io_message_latency(5, 0, 512);
        let large = m.io_message_latency(5, 0, 1 << 20);
        assert!(small.as_micros() > 0);
        assert!(large > small);
        assert!(m.service_message_latency(5, 4096).as_micros() > 0);
    }

    #[test]
    fn attached_metrics_see_routing_and_clock_extremes() {
        let registry = MetricsRegistry::new();
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = Machine::boot(MachineConfig::tiny(), &mut rng);
        m.attach_metrics(MachineMetrics::register(&registry));
        m.io_message_latency(5, 0, 10_000);
        m.service_message_latency(5, 4096);
        assert_eq!(registry.snapshot().counters["machine.messages_routed"], 0);
        drop(m);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["machine.messages_routed"], 2);
        // 10 000 bytes is three 4 KB packets, the flush one more.
        assert_eq!(snap.counters["machine.packets_routed"], 4);
        assert_eq!(snap.histograms["machine.route_hops"].count, 2);
        let drift = snap.gauges["machine.clock_drift_ppb_max"];
        assert!(drift > 0 && drift <= 80_000, "drift {drift} ppb");
        assert!(snap.gauges["machine.clock_offset_us_max"] <= 5_000);
    }

    #[test]
    fn a_clone_publishes_only_its_own_messages() {
        let registry = MetricsRegistry::new();
        let mut m = Machine::boot_synchronized(MachineConfig::tiny());
        m.attach_metrics(MachineMetrics::register(&registry));
        m.io_message_latency(5, 0, 10_000);
        let clone = m.clone();
        clone.io_message_latency(5, 0, 100);
        clone.io_message_latency(5, 1, 100);
        drop(clone);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["machine.messages_routed"], 2);
        assert_eq!(snap.counters["machine.packets_routed"], 2);
        drop(m);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["machine.messages_routed"], 3);
        assert_eq!(snap.counters["machine.packets_routed"], 5);
        assert_eq!(snap.histograms["machine.route_hops"].count, 3);
    }

    #[test]
    fn net_faults_add_latency_deterministically() {
        let plan = FaultPlan::chaos_fixture();
        let mk = || {
            let mut m = Machine::boot_synchronized(MachineConfig::nas_ipsc860());
            m.attach_faults(NetFaultState::new(&plan, 5, None));
            m
        };
        let (a, b) = (mk(), mk());
        let la: Vec<_> = (0..300)
            .map(|i| a.io_message_latency(5, 0, 4096 + i))
            .collect();
        let lb: Vec<_> = (0..300)
            .map(|i| b.io_message_latency(5, 0, 4096 + i))
            .collect();
        assert_eq!(la, lb, "same seed, same seq, same outcomes");
        let base = Machine::boot_synchronized(MachineConfig::nas_ipsc860());
        let lbase: Vec<_> = (0..300)
            .map(|i| base.io_message_latency(5, 0, 4096 + i))
            .collect();
        assert!(
            la.iter().zip(&lbase).all(|(f, b)| f >= b),
            "faults only add"
        );
        assert!(la.iter().zip(&lbase).any(|(f, b)| f > b), "fixture fires");
    }

    #[test]
    fn clock_faults_jump_a_fraction_of_clocks() {
        let plan = FaultPlan::chaos_fixture();
        let mut m = Machine::boot_synchronized(MachineConfig::nas_ipsc860());
        m.apply_clock_faults(&plan, 123, SimTime::from_hours(10), None);
        let jumped = (0..128).filter(|&n| m.clock(n).jump_at_us > 0).count();
        // 15 % of 128 nodes, give or take.
        assert!((1..60).contains(&jumped), "jumped {jumped}");
        for n in 0..128 {
            let c = m.clock(n);
            assert!(c.jump_us <= plan.clock_jump_max_us || c.jump_at_us == 0);
        }
    }

    #[test]
    fn allocator_is_usable_through_machine() {
        let mut m = Machine::boot_synchronized(MachineConfig::tiny());
        let cube = m.allocator_mut().allocate_nodes(4).unwrap();
        assert_eq!(cube.nodes(), 4);
        m.allocator_mut().release(cube);
        assert_eq!(m.allocator_mut().free_nodes(), 8);
    }
}
