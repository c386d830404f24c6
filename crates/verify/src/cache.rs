//! The cache-study gate: the §4.8 simulators' exact counts on the gate
//! workload.
//!
//! Every count the cache simulators produce is a pure function of the
//! trace and of the replacement policies, so a change to their data
//! structures must leave each one unchanged. The gate pins, over the
//! serial clean run's merged stream:
//!
//! 1. **Figure 8** — hits and requests at 1, 10 and 50 buffers per
//!    compute node;
//! 2. **Figure 9** — hits, requests, block hits and block references for
//!    every cell of [`IO_NODES`] × [`IO_BUFFERS`] × LRU/FIFO/IPL. The 3-
//!    and 20-node rows divide no buffer count or only some of them, so
//!    the per-node capacity's rounding is pinned too;
//! 3. **the combined experiment** — the bits of its three hit rates;
//!
//! in `crates/verify/fixtures/cache_counts.txt`. It then renders the same
//! lines from a [`SessionIndex`] rebuilt by scanning the run's archive
//! ([`Scan::session_index`]) and requires them to be identical.
//!
//! [`Scan::session_index`]: charisma::store::Scan::session_index

use std::fmt::Write as _;

use charisma::cachesim::{
    combined_simulation, compute_cache_sim, io_cache_sim, Policy, SessionIndex,
};
use charisma::store::{Archive, Query};
use charisma::trace::OrderedEvent;

use crate::gates::{pin, Config, Runs};

/// Figure 8's buffers per compute node.
const COMPUTE_BUFFERS: [usize; 3] = [1, 10, 50];

/// I/O-node counts of the pinned Figure 9 grid.
const IO_NODES: [usize; 5] = [1, 3, 5, 10, 20];

/// Total buffer counts of the pinned Figure 9 grid.
const IO_BUFFERS: [usize; 3] = [40, 250, 1000];

/// The fixture text: one line per simulation.
fn render(events: &[OrderedEvent], index: &SessionIndex) -> String {
    let mut out = format!("events={} sessions={}\n", events.len(), index.len());
    for buffers in COMPUTE_BUFFERS {
        let r = compute_cache_sim(events, index, buffers);
        let _ = writeln!(
            out,
            "fig8 buffers={buffers} hits={} requests={}",
            r.hits, r.requests
        );
    }
    for nodes in IO_NODES {
        for buffers in IO_BUFFERS {
            for policy in [Policy::Lru, Policy::Fifo, Policy::Ipl] {
                let r = io_cache_sim(events, index, nodes, buffers, policy);
                let _ = writeln!(
                    out,
                    "fig9 nodes={nodes} buffers={buffers} policy={policy:?} hits={} \
                     requests={} block_hits={} block_refs={}",
                    r.hits, r.accesses, r.block_hits, r.block_accesses
                );
            }
        }
    }
    let c = combined_simulation(events, index, 1, 10, 50);
    let _ = writeln!(
        out,
        "combined io_only={:#018x} io={:#018x} compute={:#018x}",
        c.io_only_hit_rate.to_bits(),
        c.combined_io_hit_rate.to_bits(),
        c.compute_hit_rate.to_bits()
    );
    out
}

/// The `cache` gate: the pinned counts, and the same counts from an
/// index rebuilt through an archive scan.
pub(crate) fn check(runs: &mut Runs, write: bool) -> Result<Vec<String>, charisma::Error> {
    let out = runs.get(Config::Clean, 1)?;
    let counts = render(&out.events, &SessionIndex::build(&out.events));
    let header = format!("seed={} scale={}\n", runs.seed, runs.scale);
    let mut complaints = pin("cache_counts.txt", &(header + &counts), "cache", write);

    let archive = Archive::from_bytes(out.archive.clone().unwrap_or_default())?;
    let scanned = archive.query(Query::all()).session_index()?;
    let rescanned = render(&out.events, &scanned);
    if rescanned != counts {
        let line = counts
            .lines()
            .zip(rescanned.lines())
            .find(|(a, b)| a != b)
            .map_or_else(String::new, |(a, b)| format!(": `{a}` vs `{b}`"));
        complaints.push(format!(
            "an index rebuilt by scanning the archive gives other cache counts than \
             the one built from the run's stream{line}"
        ));
    }
    Ok(complaints)
}
