//! End-to-end determinism harness.
//!
//! The `determinism` gate runs the full workload→simulate→trace pipeline
//! more than once with the same seed and compares a streaming hash of
//! every emitted record — the raw per-node trace stream *and* the
//! postprocessed (clock-rectified, globally ordered) stream. Any
//! divergence is localized to the first differing record, which is
//! usually enough to name the offending `HashMap` iteration or unseeded
//! RNG.
//!
//! The harness is deliberately two-layer:
//! - [`check_determinism`] compares any two record streams — the generic
//!   engine, used by the tests to prove the harness *fails* on injected
//!   nondeterminism;
//! - [`check_pipeline_determinism`] and `check` instantiate it on the
//!   unsharded generator and on the sharded [`charisma::Pipeline`].

use charisma::PipelineOutput;
use charisma_core::report::Report;
use charisma_trace::codec;
use charisma_trace::postprocess::postprocess;
use charisma_trace::{OrderedEvent, Trace};
use charisma_workload::{generate, GeneratorConfig};

use crate::gates::{Config, Runs, WORKERS};

/// Where in the pipeline the record streams first disagreed.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Ordinal of the first differing record (0-based).
    pub index: u64,
    /// Hex dump of the record from the first run (empty if the stream ended).
    pub first: String,
    /// Hex dump of the record from the second run (empty if the stream ended).
    pub second: String,
}

/// Outcome of a determinism check.
#[derive(Clone, Debug)]
pub struct DeterminismReport {
    /// Total records compared (up to the divergence, if any).
    pub records_checked: u64,
    /// Streaming FNV-1a hash over all compared records of the first run.
    pub stream_hash: u64,
    /// First disagreement, or `None` if the streams are identical.
    pub divergence: Option<Divergence>,
}

impl DeterminismReport {
    /// Did the two runs produce byte-identical streams?
    pub fn is_deterministic(&self) -> bool {
        self.divergence.is_none()
    }

    /// A one-line complaint naming the first divergent record, or `None`
    /// when the streams agreed.
    pub(crate) fn complaint(&self, label: &str) -> Option<String> {
        let d = self.divergence.as_ref()?;
        Some(format!(
            "{label}: DIVERGENCE at record {} after {} agreeing records \
             (run 1: {}, run 2: {})",
            d.index,
            self.records_checked,
            truncated(&d.first),
            truncated(&d.second)
        ))
    }
}

fn truncated(hex: &str) -> &str {
    if hex.is_empty() {
        "<stream ended>"
    } else {
        &hex[..hex.len().min(128)]
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over one byte slice — the workspace's standard fixture hash
/// (the same function the streaming determinism harness accumulates).
pub fn fnv1a_hash(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, bytes);
    hash
}

fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 0xf) as usize] as char);
    }
    s
}

/// Compare two record streams in lockstep, reporting the first divergence.
///
/// Memory use is O(1) in the stream length: records are hashed and dropped
/// as they are consumed.
pub fn check_determinism<A, B>(first: A, second: B) -> DeterminismReport
where
    A: IntoIterator<Item = Vec<u8>>,
    B: IntoIterator<Item = Vec<u8>>,
{
    let mut a = first.into_iter();
    let mut b = second.into_iter();
    let mut hash = FNV_OFFSET;
    let mut index = 0u64;
    loop {
        match (a.next(), b.next()) {
            (None, None) => {
                return DeterminismReport {
                    records_checked: index,
                    stream_hash: hash,
                    divergence: None,
                }
            }
            (ra, rb) => {
                let da = ra.as_deref().unwrap_or_default();
                let db = rb.as_deref().unwrap_or_default();
                if da != db {
                    return DeterminismReport {
                        records_checked: index,
                        stream_hash: hash,
                        divergence: Some(Divergence {
                            index,
                            first: hex(da),
                            second: hex(db),
                        }),
                    };
                }
                fnv1a(&mut hash, da);
                index += 1;
            }
        }
    }
}

/// One raw trace's records — header, then each per-node block head
/// followed by its events.
fn trace_records(trace: &Trace) -> impl Iterator<Item = Vec<u8>> + '_ {
    let mut header = Vec::new();
    codec::encode_header(&trace.header, &mut header);
    std::iter::once(header).chain(trace.blocks.iter().flat_map(|block| {
        let mut head = Vec::with_capacity(18);
        head.extend_from_slice(&block.node.to_le_bytes());
        head.extend_from_slice(&block.send_local.as_micros().to_le_bytes());
        head.extend_from_slice(&block.recv_service.as_micros().to_le_bytes());
        std::iter::once(head).chain(block.events.iter().map(|event| {
            let mut rec = Vec::with_capacity(codec::encoded_len(event));
            codec::encode_event(event, &mut rec);
            rec
        }))
    }))
}

/// Encode one rectified, globally ordered event as a record.
fn ordered_record(ordered: &OrderedEvent) -> Vec<u8> {
    let mut rec = Vec::with_capacity(26);
    rec.extend_from_slice(&ordered.node.to_le_bytes());
    let event = charisma_trace::record::Event {
        local_time: ordered.time,
        body: ordered.body,
    };
    codec::encode_event(&event, &mut rec);
    rec
}

/// Every record the unsharded generator emits for `seed` at `scale`,
/// encoded.
///
/// The stream interleaves layers so a divergence pinpoints the stage
/// that broke: the raw trace (header, block heads, events), each
/// postprocessed ordered record, and finally the rendered analysis
/// report — so a nondeterministic *analysis* (e.g. hash-ordered
/// iteration inside a figure) is caught even when the event streams
/// agree.
pub fn pipeline_record_stream(seed: u64, scale: f64) -> Vec<Vec<u8>> {
    let workload = generate(GeneratorConfig {
        scale,
        seed,
        ..Default::default()
    });
    let events = postprocess(&workload.trace);
    let report = Report::from_stream(events.iter().copied());
    trace_records(&workload.trace)
        .chain(events.iter().map(ordered_record))
        .chain(std::iter::once(report.render().into_bytes()))
        .collect()
}

/// Every record of one [`charisma::Pipeline`] run, lazily encoded: each
/// shard's raw trace in shard order, then the merged ordered stream, then
/// the rendered report.
///
/// The workload is always partitioned into
/// [`charisma_workload::shard::LOGICAL_SHARDS`] logical shards regardless
/// of the worker count, so this stream must be byte-identical for every
/// worker count.
pub fn run_records(out: &PipelineOutput) -> impl Iterator<Item = Vec<u8>> + '_ {
    out.workload
        .shards
        .iter()
        .flat_map(|shard| trace_records(&shard.trace))
        .chain(out.events.iter().map(ordered_record))
        .chain(std::iter::once_with(|| out.report.render().into_bytes()))
}

/// Run the unsharded generator twice with the same seed and diff the
/// record streams.
pub fn check_pipeline_determinism(seed: u64, scale: f64) -> DeterminismReport {
    check_determinism(
        pipeline_record_stream(seed, scale),
        pipeline_record_stream(seed, scale),
    )
}

/// Hold one pipeline configuration to the determinism contract: every
/// worker count in [`WORKERS`] reproduces the serial run, and the widest
/// count run twice reproduces itself.
///
/// Two runs agree when their record streams ([`run_records`]), archive
/// bytes and deterministic metrics cores are identical. Worker count is
/// an execution detail, not an input: any divergence means the
/// partition, the per-shard RNG derivation, the merge, or a metric
/// depends on scheduling.
pub(crate) fn check_runs_agree(
    runs: &mut Runs,
    config: Config,
) -> Result<Vec<String>, charisma::Error> {
    let mut complaints = Vec::new();
    let serial = runs.get(config, 1)?;
    let widest = WORKERS[WORKERS.len() - 1];
    let again = runs.fresh(config, widest)?;
    for &workers in &WORKERS[1..] {
        let other = runs.get(config, workers)?;
        let label = format!("{config:?} serial vs {workers}-worker run");
        complaints.extend(divergence(&label, &serial, &other));
    }
    let label = format!("{config:?} {widest}-worker run repeated");
    complaints.extend(divergence(&label, &*runs.get(config, widest)?, &again));
    Ok(complaints)
}

/// Where two pipeline runs differ: record stream, archive bytes, or
/// metrics core.
fn divergence(label: &str, a: &PipelineOutput, b: &PipelineOutput) -> Vec<String> {
    let mut complaints = Vec::new();
    let streams = check_determinism(run_records(a), run_records(b));
    complaints.extend(streams.complaint(label));
    if a.archive != b.archive {
        complaints.push(format!(
            "{label}: archive bytes differ ({:?} vs {:?} bytes)",
            a.archive.as_ref().map(Vec::len),
            b.archive.as_ref().map(Vec::len)
        ));
    }
    if a.metrics.to_core_json() != b.metrics.to_core_json() {
        complaints.push(format!("{label}: deterministic metrics cores differ"));
    }
    complaints
}

/// The `determinism` gate: the unsharded generator run twice, and the
/// clean sharded pipeline held to [`check_runs_agree`].
pub(crate) fn check(runs: &mut Runs, _write: bool) -> Result<Vec<String>, charisma::Error> {
    let mut complaints: Vec<String> = check_pipeline_determinism(runs.seed, runs.scale)
        .complaint("unsharded generator run twice")
        .into_iter()
        .collect();
    complaints.extend(check_runs_agree(runs, Config::Clean)?);
    Ok(complaints)
}
