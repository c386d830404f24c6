//! Property tests for the trace format and postprocessing pipeline.

use charisma_ipsc::{DriftClock, Duration, SimTime};
use charisma_trace::builder::TraceBuilder;
use charisma_trace::codec;
use charisma_trace::file::{read_trace, write_trace};
use charisma_trace::merge::MergedEvents;
use charisma_trace::postprocess::postprocess;
use charisma_trace::record::{AccessKind, Event, EventBody, TraceHeader};
use charisma_trace::OrderedEvent;
use proptest::prelude::*;

fn arb_body() -> impl Strategy<Value = EventBody> {
    prop_oneof![
        (any::<u32>(), any::<u16>(), any::<bool>())
            .prop_map(|(job, nodes, traced)| { EventBody::JobStart { job, nodes, traced } }),
        any::<u32>().prop_map(|job| EventBody::JobEnd { job }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            0u8..4,
            0u8..3,
            any::<bool>()
        )
            .prop_map(|(job, file, session, mode, acc, created)| EventBody::Open {
                job,
                file,
                session,
                mode,
                access: AccessKind::from_code(acc).expect("0..3"),
                created,
            }),
        (any::<u32>(), any::<u64>()).prop_map(|(session, size)| EventBody::Close { session, size }),
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(session, offset, bytes)| {
            EventBody::Read {
                session,
                offset,
                bytes,
            }
        }),
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(session, offset, bytes)| {
            EventBody::Write {
                session,
                offset,
                bytes,
            }
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(job, file)| EventBody::Delete { job, file }),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    (any::<u64>(), arb_body()).prop_map(|(t, body)| Event {
        local_time: SimTime::from_micros(t),
        body,
    })
}

proptest! {
    /// Every possible record encodes and decodes identically, and the
    /// modeled size matches the actual encoding.
    #[test]
    fn any_event_round_trips(e in arb_event()) {
        let mut buf = Vec::new();
        codec::encode_event(&e, &mut buf);
        prop_assert_eq!(buf.len(), codec::encoded_len(&e));
        let mut slice = buf.as_slice();
        prop_assert_eq!(codec::decode_event(&mut slice).unwrap(), e);
        prop_assert!(slice.is_empty());
    }

    /// Arbitrary byte soup never panics the decoder — it errors.
    #[test]
    fn decoder_rejects_garbage_gracefully(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut slice = bytes.as_slice();
        let _ = codec::decode_event(&mut slice); // must not panic
        let _ = read_trace(bytes.as_slice()); // must not panic
    }

    /// A trace built through the buffering pipeline always survives the
    /// file format round trip exactly.
    #[test]
    fn built_traces_round_trip(
        drift_ppm in -100f64..100.0,
        offsets in proptest::collection::vec((0u16..4, 0u64..1_000_000, any::<u32>()), 0..300),
    ) {
        let header = TraceHeader {
            version: TraceHeader::VERSION,
            compute_nodes: 4,
            io_nodes: 2,
            block_bytes: 4096,
            seed: 7,
        };
        let clocks = (0..4)
            .map(|i| DriftClock::new(drift_ppm * (i as f64 - 1.5), 100.0 * i as f64))
            .collect();
        let mut b = TraceBuilder::new(
            header,
            clocks,
            DriftClock::PERFECT,
            vec![Duration::from_micros(150); 4],
        );
        for (i, &(node, t, bytes)) in offsets.iter().enumerate() {
            b.log(
                node as usize,
                SimTime::from_micros(t),
                EventBody::Read {
                    session: i as u32,
                    offset: t,
                    bytes,
                },
            );
        }
        let trace = b.finish(SimTime::from_secs(10));
        let mut bytes_out = Vec::new();
        write_trace(&trace, &mut bytes_out).unwrap();
        prop_assert_eq!(read_trace(bytes_out.as_slice()).unwrap(), trace);
    }

    /// Postprocessing is a permutation (no records gained or lost) and
    /// preserves each node's internal order, regardless of clock drift.
    #[test]
    fn postprocess_permutes_and_keeps_node_order(
        drifts in proptest::collection::vec(-90f64..90.0, 3),
        steps in proptest::collection::vec((0u16..3, 1u64..100_000), 1..400),
    ) {
        let header = TraceHeader {
            version: TraceHeader::VERSION,
            compute_nodes: 3,
            io_nodes: 1,
            block_bytes: 4096,
            seed: 1,
        };
        let clocks = drifts.iter().map(|&d| DriftClock::new(d, d * 10.0)).collect();
        let mut b = TraceBuilder::new(
            header,
            clocks,
            DriftClock::PERFECT,
            vec![Duration::from_micros(200); 3],
        );
        // Each node gets strictly increasing true times.
        let mut node_clocks = [0u64; 3];
        let mut expected_per_node: Vec<Vec<u32>> = vec![Vec::new(); 3];
        for (i, &(node, dt)) in steps.iter().enumerate() {
            node_clocks[node as usize] += dt;
            b.log(
                node as usize,
                SimTime::from_micros(node_clocks[node as usize]),
                EventBody::Read { session: i as u32, offset: 0, bytes: 1 },
            );
            expected_per_node[node as usize].push(i as u32);
        }
        let trace = b.finish(SimTime::from_secs(100));
        let ordered = postprocess(&trace);
        prop_assert_eq!(ordered.len(), steps.len());
        // Per-node order preserved.
        let mut got_per_node: Vec<Vec<u32>> = vec![Vec::new(); 3];
        for e in &ordered {
            if let EventBody::Read { session, .. } = e.body {
                got_per_node[e.node as usize].push(session);
            }
        }
        prop_assert_eq!(got_per_node, expected_per_node);
    }

    /// The k-way shard merge is a *stable total order*: against adversarial
    /// shard timings (heavy ties in both time and node), its output equals
    /// an independent sort-based oracle — each shard stable-sorted by
    /// `(time, node)`, then globally ordered by `(time, node, shard, seq)`.
    /// Heap pop order vs. comparison sort is exactly the kind of
    /// equivalence that silently breaks when a tiebreak is dropped.
    #[test]
    fn merge_matches_sort_oracle(
        shards in proptest::collection::vec(
            proptest::collection::vec((0u64..16, 0u16..4, any::<u32>()), 0..60),
            0..6,
        ),
    ) {
        let shards: Vec<Vec<OrderedEvent>> = shards
            .into_iter()
            .map(|stream| {
                stream
                    .into_iter()
                    .map(|(t, node, session)| OrderedEvent {
                        time: SimTime::from_micros(t),
                        node,
                        body: EventBody::Read { session, offset: 0, bytes: 1 },
                    })
                    .collect()
            })
            .collect();

        let mut oracle = Vec::new();
        for (shard, stream) in shards.iter().enumerate() {
            let mut sorted = stream.clone();
            sorted.sort_by_key(|e| (e.time, e.node));
            for (seq, e) in sorted.into_iter().enumerate() {
                oracle.push(((e.time, e.node, shard, seq), e));
            }
        }
        oracle.sort_by_key(|entry| entry.0);
        let oracle: Vec<OrderedEvent> = oracle.into_iter().map(|(_, e)| e).collect();

        let merged: Vec<_> = MergedEvents::new(shards).collect();
        prop_assert_eq!(merged, oracle);
    }

}
