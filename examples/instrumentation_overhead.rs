//! How much did the tracing itself cost? The paper benchmarked its
//! instrumented CFS library and found the overhead "virtually
//! undetectable in many cases", with a worst case of a 7% slowdown on one
//! run of the NAS NHT-1 Application-I/O Benchmark (§3.1).
//!
//! This example replays an NHT-1-style I/O benchmark (a parallel
//! application alternating computation with intense read/write phases)
//! through the simulated machine twice — once bare, once charging each
//! CFS call the instrumentation cost (an event-record append, plus a 4 KB
//! flush message every time the node buffer fills) — and reports the
//! slowdown.
//!
//! ```text
//! cargo run --release --example instrumentation_overhead
//! ```

use charisma::ipsc::Duration;
use charisma::prelude::*;

/// Cost of appending one event record to the node-local 4 KB buffer
/// (a few dozen i860 instructions plus a gettime call).
const RECORD_APPEND_US: u64 = 25;
/// Records per 4 KB buffer (the paper's ~90 % message reduction implies
/// roughly this many records per flush).
const RECORDS_PER_FLUSH: u64 = 170;

/// Run the NHT-1-style benchmark; returns the simulated makespan.
fn nht1_makespan(instrumented: bool) -> Result<f64, charisma::Error> {
    let machine = Machine::boot_synchronized(MachineConfig::nas_ipsc860());
    let mut cfs = Cfs::new(CfsConfig::nas());
    let nodes: u16 = 16;
    let t0 = SimTime::from_secs(1);

    // Per-node event counter for flush accounting.
    let mut records = vec![0u64; nodes as usize];
    let mut clock = vec![t0; nodes as usize];
    let charge = |node: u16, clock: &mut Vec<SimTime>, records: &mut Vec<u64>| {
        if !instrumented {
            return;
        }
        let n = node as usize;
        records[n] += 1;
        clock[n] += Duration::from_micros(RECORD_APPEND_US);
        if records[n].is_multiple_of(RECORDS_PER_FLUSH) {
            // The flush message to the service node happens on the node's
            // critical path (send overhead; transit is asynchronous).
            clock[n] += Duration::from_micros(120);
        }
    };

    // Phase 1: every node writes a 1 MB result file in 8 KB records.
    let mut sessions = Vec::new();
    for n in 0..nodes {
        let o = cfs.open(
            1,
            &format!("nht1/out{n}"),
            Access::Write,
            IoMode::Independent,
            n,
            false,
        )?;
        charge(n, &mut clock, &mut records);
        sessions.push(o.session);
    }
    for _ in 0..128 {
        for n in 0..nodes {
            let i = n as usize;
            let out = cfs.write(&machine, sessions[i], n, 8192, clock[i])?;
            clock[i] = out.completion;
            charge(n, &mut clock, &mut records);
        }
    }
    for n in 0..nodes {
        cfs.close(sessions[n as usize], n)?;
        charge(n, &mut clock, &mut records);
    }

    // Phase 2: every node reads its file back in small records.
    for n in 0..nodes {
        let o = cfs.open(
            2,
            &format!("nht1/out{n}"),
            Access::Read,
            IoMode::Independent,
            n,
            false,
        )?;
        charge(n, &mut clock, &mut records);
        let i = n as usize;
        for _ in 0..1024 {
            let out = cfs.read(&machine, o.session, n, 1024, clock[i])?;
            clock[i] = out.completion;
            charge(n, &mut clock, &mut records);
        }
        cfs.close(o.session, n)?;
        charge(n, &mut clock, &mut records);
    }

    Ok(clock
        .iter()
        .map(|t| (*t - t0).as_secs_f64())
        .fold(0.0, f64::max))
}

fn main() -> Result<(), charisma::Error> {
    let bare = nht1_makespan(false)?;
    let traced = nht1_makespan(true)?;
    let overhead = 100.0 * (traced - bare) / bare;
    println!("NHT-1-style benchmark, 16 nodes, 2176 I/O calls per node:");
    println!("  uninstrumented makespan: {bare:.3}s (simulated)");
    println!("  instrumented makespan:   {traced:.3}s (simulated)");
    println!("  tracing overhead:        {overhead:.2}%");
    println!();
    println!(
        "The paper reports a worst case of 7% on one NHT-1 run and\n\
         'virtually undetectable' overhead elsewhere (§3.1); the buffered\n\
         collection path keeps the per-call cost to an in-memory append."
    );
    assert!(overhead < 10.0, "instrumentation must stay cheap");
    Ok(())
}
