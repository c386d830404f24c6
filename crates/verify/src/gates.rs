//! The gate table behind `charisma-verify gates [NAME ...] [--write]`.
//!
//! Each [`Gate`] is one named check over the pinned workload (seed
//! [`SEED`], scale [`SCALE`], worker counts [`WORKERS`]). All selected
//! gates share one [`Runs`], so a pipeline configuration — a fault plan,
//! a sink and a worker count — runs at most once per invocation, plus a
//! second time where repeatability is the check. Every check returns its
//! complaints; an empty list means it passed. With `write`, a check
//! regenerates its fixtures instead of diffing against them.
//!
//! [`Runs`] keeps the runs of one `Config` at a time, so the gates that
//! share a configuration sit next to each other in [`GATES`]: the six
//! clean-run gates first, then `chaos`.

use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;

use charisma::{ArchiveSink, Pipeline, PipelineOutput};

use crate::chaos::{archive_fault_drill, archive_fault_plan, chaos_plan};
use crate::metrics::diff_json;

/// The seed every gate runs at.
pub const SEED: u64 = 4994;

/// The workload scale every gate runs at.
pub const SCALE: f64 = 0.05;

/// Generation worker counts the invariance checks cover, serial first.
pub const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// The fault plan × sink pairings the gates run the pipeline under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Config {
    /// No faults, in-memory archive sink.
    Clean,
    /// The canonical chaos plan ([`chaos_plan`]), no sink.
    Chaos,
    /// The archive-fault plan ([`archive_fault_plan`]), in-memory sink,
    /// with [`archive_fault_drill`]'s metrics merged into the output.
    ArchiveFaults,
}

/// Pipeline runs shared by every gate of one invocation.
pub struct Runs {
    /// Master seed of every run.
    pub(crate) seed: u64,
    /// Workload scale of every run.
    pub(crate) scale: f64,
    /// The configuration `shared` holds runs of.
    config: Config,
    /// Runs of `config`, by worker count.
    shared: BTreeMap<usize, Rc<PipelineOutput>>,
}

impl Runs {
    /// No runs yet; each is made on first use.
    pub fn new(seed: u64, scale: f64) -> Self {
        Runs {
            seed,
            scale,
            config: Config::Clean,
            shared: BTreeMap::new(),
        }
    }

    /// The shared run of `config` on `workers` threads. Asking for
    /// another configuration than the last one drops the runs kept so far.
    pub(crate) fn get(
        &mut self,
        config: Config,
        workers: usize,
    ) -> Result<Rc<PipelineOutput>, charisma::Error> {
        if config != self.config {
            self.shared.clear();
            self.config = config;
        }
        if let Some(out) = self.shared.get(&workers) {
            return Ok(Rc::clone(out));
        }
        let out = Rc::new(self.fresh(config, workers)?);
        self.shared.insert(workers, Rc::clone(&out));
        Ok(out)
    }

    /// A new run of `config` on `workers` threads, not shared: the second
    /// run of a repeatability check.
    pub(crate) fn fresh(
        &self,
        config: Config,
        workers: usize,
    ) -> Result<PipelineOutput, charisma::Error> {
        let pipeline = Pipeline::new()
            .seed(self.seed)
            .scale(self.scale)
            .shards(workers);
        match config {
            Config::Clean => pipeline.sink(ArchiveSink::Memory).run(),
            Config::Chaos => pipeline.faults(chaos_plan()).run(),
            Config::ArchiveFaults => {
                let plan = archive_fault_plan();
                let mut out = pipeline
                    .faults(plan.clone())
                    .sink(ArchiveSink::Memory)
                    .run()?;
                let bytes = out.archive.as_deref().unwrap_or_default();
                let drill = archive_fault_drill(bytes, &plan)?;
                out.metrics.merge(&drill);
                Ok(out)
            }
        }
    }
}

/// One named check: its complaints, or the error that stopped it.
pub type Check = fn(&mut Runs, bool) -> Result<Vec<String>, charisma::Error>;

/// A named entry of the gate table.
pub struct Gate {
    /// The name `charisma-verify gates NAME` selects it by.
    pub name: &'static str,
    /// The check; its `bool` argument is `--write`.
    pub check: Check,
}

impl Gate {
    /// Run the check; an error that stopped it is one more complaint.
    pub fn run(&self, runs: &mut Runs, write: bool) -> Vec<String> {
        (self.check)(runs, write).unwrap_or_else(|e| vec![format!("pipeline error: {e}")])
    }
}

/// Every gate, in the order `charisma-verify gates` runs them.
pub const GATES: [Gate; 7] = [
    Gate {
        name: "determinism",
        check: crate::determinism::check,
    },
    Gate {
        name: "metrics",
        check: crate::metrics::check,
    },
    Gate {
        name: "archive",
        check: crate::archive::check,
    },
    Gate {
        name: "serve",
        check: crate::serve::check,
    },
    Gate {
        name: "tier",
        check: crate::tier::check,
    },
    Gate {
        name: "cache",
        check: crate::cache::check,
    },
    Gate {
        name: "chaos",
        check: crate::chaos::check,
    },
];

/// The gates named in `names`, in table order; all of them when `names`
/// is empty. `Err` carries the first name that is not in the table.
pub fn select<'a>(names: &[&'a str]) -> Result<Vec<&'static Gate>, &'a str> {
    if let Some(unknown) = names.iter().find(|n| !GATES.iter().any(|g| g.name == **n)) {
        return Err(unknown);
    }
    Ok(GATES
        .iter()
        .filter(|g| names.is_empty() || names.contains(&g.name))
        .collect())
}

/// Diff `observed` against the checked-in fixture `file`, or overwrite
/// the fixture with it when `write` is set. `gate` names the check whose
/// `--write` regenerates it.
pub(crate) fn pin(file: &str, observed: &str, gate: &str, write: bool) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(file);
    if write {
        return match std::fs::write(&path, observed) {
            Ok(()) => Vec::new(),
            Err(e) => vec![format!("cannot write {}: {e}", path.display())],
        };
    }
    let hint = format!("regenerate with: charisma-verify gates {gate} --write");
    let expected = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => return vec![format!("cannot read {}: {e} ({hint})", path.display())],
    };
    let diffs = diff_json(&expected, observed);
    if diffs.is_empty() {
        return Vec::new();
    }
    let mut complaints: Vec<String> = diffs
        .iter()
        .take(20)
        .map(|d| format!("{file} {d}"))
        .collect();
    complaints.push(format!(
        "{file}: {} line(s) differ (if the change is intended, {hint})",
        diffs.len()
    ));
    complaints
}
