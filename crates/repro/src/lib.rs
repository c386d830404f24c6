//! The reproduction harness: one pipeline that generates the workload,
//! collects and rectifies the trace, and regenerates every table and
//! figure of the paper's evaluation, plus the §5 ablations.
//!
//! The `repro` binary drives this end to end:
//!
//! ```text
//! cargo run -p charisma-repro --release --bin repro -- --scale 0.25
//! cargo run -p charisma-repro --release --bin repro -- --exp fig9
//! ```

use charisma_cachesim::{combined_simulation, compute_cache_sim, sweep, Policy, SessionIndex};
use charisma_core::report::Report;
use charisma_trace::{postprocess, OrderedEvent};
use charisma_workload::{generate, GeneratorConfig};

pub mod ablation;
pub mod figures;

/// Everything the experiments need, computed once.
pub struct Pipeline {
    /// The rectified, globally ordered event stream.
    pub events: Vec<OrderedEvent>,
    /// The full §4 characterization.
    pub report: Report,
    /// Session index for the cache simulations.
    pub index: SessionIndex,
    /// Generator bookkeeping.
    pub stats: charisma_workload::generate::GenStats,
    /// Scale the pipeline ran at.
    pub scale: f64,
}

/// Run generation → collection → postprocessing → characterization.
pub fn run_pipeline(scale: f64, seed: u64) -> Pipeline {
    let workload = generate(GeneratorConfig {
        scale,
        seed,
        ..Default::default()
    });
    let events = postprocess(&workload.trace);
    let report = Report::from_events(&events);
    let index = SessionIndex::build(&events);
    Pipeline {
        events,
        report,
        index,
        stats: workload.stats,
        scale,
    }
}

impl Pipeline {
    /// Figure 8 for a given per-node buffer count.
    pub fn figure8(&self, buffers: usize) -> charisma_cachesim::ComputeCacheResult {
        compute_cache_sim(&self.events, &self.index, buffers)
    }

    /// Figure 9 sweep.
    pub fn figure9(
        &self,
        io_nodes: &[usize],
        buffers: &[usize],
        policies: &[Policy],
    ) -> Vec<charisma_cachesim::IoCacheResult> {
        sweep(&self.events, &self.index, io_nodes, buffers, policies)
    }

    /// §4.8's combined experiment.
    pub fn combined(&self) -> charisma_cachesim::CombinedResult {
        combined_simulation(&self.events, &self.index, 1, 10, 50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_runs_end_to_end_at_small_scale() {
        let p = run_pipeline(0.02, 4994);
        assert!(p.events.len() > 1000);
        assert!(!p.index.is_empty());
        let text = p.report.render();
        assert!(text.contains("Table 2"));
        let f8 = p.figure8(1);
        assert!(f8.requests > 100);
        let combined = p.combined();
        assert!(combined.io_only_hit_rate > 0.0);
    }
}
