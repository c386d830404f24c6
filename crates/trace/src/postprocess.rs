//! Trace postprocessing: clock rectification and chronological sorting.
//!
//! "We partially compensated for the asynchrony by timestamping each block
//! of records when it left the node and again when it was received at the
//! data collector. From the difference between the two we could
//! approximately adjust the event order … Nonetheless, it is still an
//! approximation, so much of our analysis is based on spatial, rather than
//! temporal, information." (paper §3.2)
//!
//! For each node we fit a linear model `collector_time ≈ a + b·local_time`
//! by least squares over that node's (send, receive) block-timestamp pairs,
//! then map every record timestamp into the collector frame and merge-sort.
//! The network flush latency biases `a` upward by a roughly constant amount
//! for every node, which shifts all estimates together and is harmless for
//! ordering — the same property the paper relied on.

use charisma_ipsc::{round_u64, SimTime};

use crate::builder::Trace;
use crate::record::{EventBody, SERVICE_NODE};

/// An event in the rectified, globally ordered stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderedEvent {
    /// Estimated collector-frame timestamp.
    pub time: SimTime,
    /// Recording node ([`SERVICE_NODE`] for job start/end records).
    pub node: u16,
    /// The record payload.
    pub body: EventBody,
}

/// Per-node linear clock-correction model.
#[derive(Clone, Copy, Debug)]
pub struct ClockFit {
    /// Intercept: collector time at node-local time zero, µs.
    pub a: f64,
    /// Slope: collector µs per node-local µs (1 + relative drift).
    pub b: f64,
}

impl ClockFit {
    /// Identity correction.
    pub const IDENTITY: ClockFit = ClockFit { a: 0.0, b: 1.0 };

    /// Map a node-local timestamp into the collector frame.
    pub fn correct(&self, local: SimTime) -> SimTime {
        let t = self.a + self.b * local.as_micros() as f64;
        SimTime::from_micros(round_u64(t))
    }
}

/// Fit `recv ≈ a + b·send` by ordinary least squares.
///
/// With fewer than two distinct send timestamps the slope is pinned at 1
/// and only the offset is estimated (the paper's fallback for nodes that
/// flushed rarely).
pub fn fit_clock(pairs: &[(SimTime, SimTime)]) -> ClockFit {
    if pairs.is_empty() {
        return ClockFit::IDENTITY;
    }
    let n = pairs.len() as f64;
    let mean_x = pairs.iter().map(|p| p.0.as_micros() as f64).sum::<f64>() / n;
    let mean_y = pairs.iter().map(|p| p.1.as_micros() as f64).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for (x, y) in pairs {
        let dx = x.as_micros() as f64 - mean_x;
        let dy = y.as_micros() as f64 - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
    }
    if sxx < 1e-9 {
        // One distinct timestamp: offset-only correction.
        return ClockFit {
            a: mean_y - mean_x,
            b: 1.0,
        };
    }
    let b = sxy / sxx;
    // Guard against degenerate fits on adversarial block spacing: a real
    // clock's rate error is tiny, so clamp the slope near 1.
    let b = b.clamp(0.99, 1.01);
    ClockFit {
        a: mean_y - b * mean_x,
        b,
    }
}

/// Estimate per-node clock corrections from a trace's block timestamps.
///
/// Returns one [`ClockFit`] per compute node (indexed by node id).
pub fn fit_all_clocks(trace: &Trace) -> Vec<ClockFit> {
    let nodes = trace.header.compute_nodes as usize;
    let mut pairs: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); nodes];
    for block in &trace.blocks {
        if block.node != SERVICE_NODE {
            pairs[block.node as usize].push((block.send_local, block.recv_service));
        }
    }
    pairs.iter().map(|p| fit_clock(p)).collect()
}

/// Rectify and chronologically sort a collected trace.
///
/// The sort is stable with per-node record order preserved (a node's own
/// records are genuinely ordered; only cross-node order is estimated).
pub fn postprocess(trace: &Trace) -> Vec<OrderedEvent> {
    let fits = fit_all_clocks(trace);
    let mut out = Vec::with_capacity(trace.event_count());
    for block in &trace.blocks {
        let fit = if block.node == SERVICE_NODE {
            ClockFit::IDENTITY
        } else {
            fits[block.node as usize]
        };
        for e in &block.events {
            out.push(OrderedEvent {
                time: fit.correct(e.local_time),
                node: block.node,
                body: e.body,
            });
        }
    }
    // Stable sort keeps per-node order for equal timestamps; blocks of one
    // node were already appended in generation order.
    out.sort_by_key(|e| e.time);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::record::TraceHeader;
    use charisma_ipsc::{DriftClock, Duration};

    fn header(nodes: u32) -> TraceHeader {
        TraceHeader {
            version: TraceHeader::VERSION,
            compute_nodes: nodes,
            io_nodes: 1,
            block_bytes: 4096,
            seed: 1,
        }
    }

    #[test]
    fn fit_recovers_drift_exactly_without_noise() {
        let clock = DriftClock::new(60.0, 2000.0);
        let pairs: Vec<_> = (1..20u64)
            .map(|i| {
                let true_t = SimTime::from_secs(i * 500);
                (clock.local_time(true_t), true_t)
            })
            .collect();
        let fit = fit_clock(&pairs);
        // Inverting the clock: b should be ~1/(1+60ppm), a ~ -offset/(1+d).
        assert!((fit.b - 1.0 / 1.000060).abs() < 1e-6, "b={}", fit.b);
        for (local, true_t) in pairs {
            let err = fit.correct(local).as_micros().abs_diff(true_t.as_micros());
            assert!(err <= 2, "correction error {err}us");
        }
    }

    #[test]
    fn fit_single_point_is_offset_only() {
        let fit = fit_clock(&[(SimTime::from_secs(10), SimTime::from_secs(11))]);
        assert_eq!(fit.b, 1.0);
        assert_eq!(fit.correct(SimTime::from_secs(10)), SimTime::from_secs(11));
    }

    #[test]
    fn fit_empty_is_identity() {
        let fit = fit_clock(&[]);
        let t = SimTime::from_secs(42);
        assert_eq!(fit.correct(t), t);
    }

    #[test]
    fn postprocess_restores_cross_node_order() {
        // Two nodes with strong opposite drifts interleave writes; raw trace
        // order (by arrival) and local timestamps disagree with true order.
        let clocks = vec![
            DriftClock::new(90.0, 4000.0),
            DriftClock::new(-90.0, -4000.0),
        ];
        let mut b = TraceBuilder::new(
            header(2),
            clocks,
            DriftClock::PERFECT,
            vec![Duration::from_micros(300); 2],
        );
        let mut truth = Vec::new();
        // Alternate events between nodes, 10 s apart so drift accumulates.
        for i in 0..400u64 {
            let node = (i % 2) as usize;
            let t = SimTime::from_secs(10 + i * 10);
            b.log(
                node,
                t,
                EventBody::Read {
                    session: i as u32,
                    offset: 0,
                    bytes: 1,
                },
            );
            truth.push(i as u32);
        }
        let trace = b.finish(SimTime::from_secs(100_000));
        let ordered = postprocess(&trace);
        let sessions: Vec<u32> = ordered
            .iter()
            .filter_map(|e| match e.body {
                EventBody::Read { session, .. } => Some(session),
                _ => None,
            })
            .collect();
        // The estimated order should match the true order almost everywhere
        // (the paper only claims a "closer approximation").
        let misplaced = sessions.iter().zip(&truth).filter(|(a, b)| a != b).count();
        assert!(
            misplaced * 20 <= sessions.len(),
            "{misplaced}/{} events misordered",
            sessions.len()
        );
    }

    #[test]
    fn postprocess_is_a_permutation() {
        let mut b = TraceBuilder::new(
            header(3),
            vec![DriftClock::new(10.0, 0.0); 3],
            DriftClock::PERFECT,
            vec![Duration::from_micros(100); 3],
        );
        for i in 0..300u64 {
            b.log(
                (i % 3) as usize,
                SimTime::from_micros(i * 1000),
                EventBody::Write {
                    session: i as u32,
                    offset: i,
                    bytes: 8,
                },
            );
        }
        let trace = b.finish(SimTime::from_secs(10));
        let ordered = postprocess(&trace);
        assert_eq!(ordered.len(), trace.event_count());
        let mut seen: Vec<u32> = ordered
            .iter()
            .filter_map(|e| match e.body {
                EventBody::Write { session, .. } => Some(session),
                _ => None,
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn per_node_order_is_preserved() {
        let mut b = TraceBuilder::new(
            header(1),
            vec![DriftClock::new(-50.0, 12345.0)],
            DriftClock::PERFECT,
            vec![Duration::from_micros(100)],
        );
        for i in 0..1000u64 {
            b.log(
                0,
                SimTime::from_micros(i * 17),
                EventBody::Read {
                    session: 0,
                    offset: i,
                    bytes: 1,
                },
            );
        }
        let ordered = postprocess(&b.finish(SimTime::from_secs(1)));
        let offsets: Vec<u64> = ordered
            .iter()
            .filter_map(|e| match e.body {
                EventBody::Read { offset, .. } => Some(offset),
                _ => None,
            })
            .collect();
        assert!(
            offsets.windows(2).all(|w| w[0] < w[1]),
            "single node's order must survive postprocessing"
        );
    }
}
