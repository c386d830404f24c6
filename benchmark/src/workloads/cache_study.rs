//! `cache_study`: the paper's §4.8 cache experiments over a generated
//! trace. One set is Figure 8 (1, 10 and 50 buffers per compute node),
//! the whole Figure 9 grid (1/5/10/20 I/O nodes × the eight buffer counts
//! `repro` uses, scaled with the trace, × LRU/FIFO) and the combined
//! experiment: 68 simulations. One client runs a set's simulations in an
//! order drawn from `--seed`; sets run whole, one after another, until
//! the time is up. Every repeat of a simulation must give its first
//! run's hit counts.

use std::time::{Duration, Instant};

use charisma::cachesim::{
    combined_simulation, compute_cache_sim, io_cache_sim, Policy, SessionIndex,
};
use charisma::trace::record::EventBody;
use charisma::trace::OrderedEvent;

use super::generate;
use crate::host::Host;
use crate::stats::Rng;
use crate::trace::{LayerTable, Span, Tracer};
use crate::{ratio, Bench, Config, Phase, Tally, Workload};

/// Figure 8's buffers per compute node.
const COMPUTE_BUFFERS: [usize; 3] = [1, 10, 50];
/// Figure 9's I/O-node counts.
const IO_NODES: [usize; 4] = [1, 5, 10, 20];
/// Figure 9's total buffers at scale 1, as `repro` sweeps them.
const IO_BUFFERS: [usize; 8] = [250, 500, 1000, 2000, 4000, 8000, 16000, 25000];

#[derive(Clone, Copy, Debug)]
enum Sim {
    Compute(usize),
    Io(usize, usize, Policy),
    Combined,
}

impl Sim {
    fn span(self) -> &'static str {
        match self {
            Sim::Compute(_) => "cachesim.compute",
            Sim::Io(..) => "cachesim.ionode",
            Sim::Combined => "cachesim.combined",
        }
    }
}

pub(crate) struct CacheStudy {
    events: Vec<OrderedEvent>,
    index: SessionIndex,
    requests: u64,
    sims: Vec<Sim>,
    /// The seeded order the client runs `sims` in.
    order: Vec<usize>,
}

impl CacheStudy {
    /// Run one simulation; its hit and access counts are its result.
    fn simulate(&self, sim: Sim) -> Vec<u64> {
        match sim {
            Sim::Compute(buffers) => {
                let r = compute_cache_sim(&self.events, &self.index, buffers);
                vec![r.hits, r.requests]
            }
            Sim::Io(nodes, buffers, policy) => {
                let r = io_cache_sim(&self.events, &self.index, nodes, buffers, policy);
                vec![r.hits, r.accesses, r.block_hits, r.block_accesses]
            }
            Sim::Combined => {
                let r = combined_simulation(&self.events, &self.index, 1, 10, 50);
                [
                    r.io_only_hit_rate,
                    r.combined_io_hit_rate,
                    r.compute_hit_rate,
                ]
                .map(f64::to_bits)
                .to_vec()
            }
        }
    }
}

impl Bench for CacheStudy {
    fn setup(cfg: &Config, req: &Span<'_>) -> Result<Self, String> {
        let scale = cfg.scale_for(Workload::CacheStudy);
        let events = generate(scale, req)?;
        let index = req.time("cachesim.index", || SessionIndex::build(&events));
        let requests = events
            .iter()
            .filter(|e| matches!(e.body, EventBody::Read { .. } | EventBody::Write { .. }))
            .count() as u64;
        let buffers = IO_BUFFERS.map(|b| ((b as f64 * scale.min(1.0)).round() as usize).max(8));
        let mut sims: Vec<Sim> = COMPUTE_BUFFERS.into_iter().map(Sim::Compute).collect();
        for nodes in IO_NODES {
            for b in buffers {
                for policy in [Policy::Lru, Policy::Fifo] {
                    sims.push(Sim::Io(nodes, b, policy));
                }
            }
        }
        sims.push(Sim::Combined);
        // Seeded Fisher-Yates: the order, not the work, follows --seed.
        let mut order: Vec<usize> = (0..sims.len()).collect();
        let mut rng = Rng::new(cfg.seed, 0xCA);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Ok(CacheStudy {
            events,
            index,
            requests,
            sims,
            order,
        })
    }

    fn records(&self) -> u64 {
        self.events.len() as u64
    }

    fn phase(
        &self,
        _cfg: &Config,
        budget: Duration,
        tracer: &Tracer,
        host: &mut Host,
        tally: &mut Tally,
    ) -> Result<Phase, String> {
        let started = Instant::now();
        let mut phase = Phase::default();
        // A simulation's first run is the reference for its repeats, and
        // every I/O-node run sees the same request and block stream.
        let mut first: Vec<Option<Vec<u64>>> = vec![None; self.sims.len()];
        let mut io_refs = None;
        while phase.units < 1 || started.elapsed() < budget {
            let mut set_ms = 0.0;
            let mut block_refs = 0.0;
            for &sim in &self.order {
                host.tick();
                let req = tracer.request("bench.simulation");
                let t = Instant::now();
                let result = req.time(self.sims[sim].span(), || self.simulate(self.sims[sim]));
                drop(req);
                let ms = host.ms_since(t);
                set_ms += ms;
                match self.sims[sim] {
                    Sim::Io(..) => {
                        let refs = (result[1], result[3]);
                        tally.check(*io_refs.get_or_insert(refs) == refs);
                        block_refs += result[3] as f64;
                        phase.add("block_hits", result[2] as f64);
                    }
                    Sim::Compute(_) => phase.add("compute_requests", result[1] as f64),
                    Sim::Combined => phase.add("combined_requests", self.requests as f64),
                }
                match &first[sim] {
                    Some(want) => {
                        tally.check(*want == result);
                    }
                    None => first[sim] = Some(result),
                }
                phase.ops_ms.push(ms);
            }
            phase.add("block_refs", block_refs);
            phase.rates.push(block_refs / (set_ms / 1e3));
            phase.units += 1;
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        Ok(phase)
    }

    fn layers(
        &self,
        _untraced: &Phase,
        traced: &Phase,
        table: &LayerTable,
    ) -> Vec<(&'static str, f64)> {
        let index_work = self.events.len() as f64 * table.row("cachesim.index").count as f64;
        vec![
            (
                "cachesim.index_records_per_s",
                table.rate("cachesim.index", index_work),
            ),
            (
                "cachesim.compute_requests_per_s",
                table.rate("cachesim.compute", traced.get("compute_requests")),
            ),
            (
                "cachesim.ionode_block_refs_per_s",
                table.rate("cachesim.ionode", traced.get("block_refs")),
            ),
            (
                "cachesim.combined_requests_per_s",
                table.rate("cachesim.combined", traced.get("combined_requests")),
            ),
            (
                "cachesim.block_refs",
                ratio(
                    traced.get("block_refs"),
                    table.row("cachesim.ionode").count as f64,
                ),
            ),
            (
                "cachesim.io_hit_ratio",
                ratio(traced.get("block_hits"), traced.get("block_refs")),
            ),
        ]
    }
}
