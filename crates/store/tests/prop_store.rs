//! Property tests for the columnar archive.
//!
//! Three layers, three promises:
//! * every column codec is a bijection on arbitrary value sequences, and
//!   the batched decoders agree with a per-byte reference decoder on
//!   arbitrary (hostile) bytes;
//! * the archive round-trips arbitrary record streams exactly (and the
//!   bytes are canonical — re-encoding yields the same bytes);
//! * zone-map pruning is *conservative*: for an arbitrary query over an
//!   arbitrary stream, the pruned parallel scan returns exactly the
//!   records a plain filter over the full stream returns — pruning can
//!   skip work but never drop a match.

use charisma_ipsc::SimTime;
use charisma_store::{
    decode_delta_column, decode_delta_column_into, decode_dict_column, decode_varint_column,
    decode_varint_column_into, encode_delta_column, encode_dict_column, encode_varint_column,
    unzigzag, write_archive, zigzag, Archive, ArchiveMeta, ArchiveReader, OpClass, OpSet, Query,
    SealedSegment, SegmentBuilder,
};
use charisma_trace::record::{AccessKind, EventBody};
use charisma_trace::OrderedEvent;
use proptest::prelude::*;

/// Bodies with deliberately small id alphabets so queries actually hit.
fn arb_body() -> impl Strategy<Value = EventBody> {
    prop_oneof![
        (0u32..12, any::<u16>(), any::<bool>())
            .prop_map(|(job, nodes, traced)| EventBody::JobStart { job, nodes, traced }),
        (0u32..12).prop_map(|job| EventBody::JobEnd { job }),
        (0u32..12, 0u32..24, 0u32..40, 0u8..4, 0u8..3, any::<bool>()).prop_map(
            |(job, file, session, mode, acc, created)| EventBody::Open {
                job,
                file,
                session,
                mode,
                access: AccessKind::from_code(acc).expect("0..3"),
                created,
            }
        ),
        (0u32..40, any::<u64>()).prop_map(|(session, size)| EventBody::Close { session, size }),
        (0u32..40, any::<u64>(), any::<u32>()).prop_map(|(session, offset, bytes)| {
            EventBody::Read {
                session,
                offset,
                bytes,
            }
        }),
        (0u32..40, any::<u64>(), any::<u32>()).prop_map(|(session, offset, bytes)| {
            EventBody::Write {
                session,
                offset,
                bytes,
            }
        }),
        (0u32..12, 0u32..24).prop_map(|(job, file)| EventBody::Delete { job, file }),
    ]
}

fn arb_stream() -> impl Strategy<Value = Vec<OrderedEvent>> {
    proptest::collection::vec((0u64..100_000, 0u16..8, arb_body()), 0..600).prop_map(|raw| {
        let mut events: Vec<OrderedEvent> = raw
            .into_iter()
            .map(|(t, node, body)| OrderedEvent {
                time: SimTime::from_micros(t),
                node,
                body,
            })
            .collect();
        // Archives are written from the merged stream, which is ordered.
        events.sort_by_key(|e| (e.time, e.node));
        events
    })
}

/// A stream repeating one body: every segment's op (and often mode/flags)
/// dictionary is constant, exercising the index-elision decode path.
fn arb_uniform_stream() -> impl Strategy<Value = Vec<OrderedEvent>> {
    (arb_body(), 0usize..400).prop_map(|(body, n)| {
        (0..n)
            .map(|i| OrderedEvent {
                time: SimTime::from_micros(i as u64 * 5),
                node: (i % 4) as u16,
                body,
            })
            .collect()
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        proptest::option::of((0u64..100_000, 0u64..100_000)),
        proptest::option::of(proptest::collection::vec(0u32..14, 0..4)),
        proptest::option::of(proptest::collection::vec(0u32..26, 0..4)),
        proptest::option::of(proptest::collection::vec(0u16..9, 0..3)),
        proptest::option::of(0u8..128),
    )
        .prop_map(|(time, jobs, files, nodes, ops)| {
            let mut q = Query::all();
            if let Some((a, b)) = time {
                q = q.time_window(
                    SimTime::from_micros(a.min(b)),
                    SimTime::from_micros(a.max(b)),
                );
            }
            if let Some(jobs) = jobs {
                q = q.jobs(&jobs);
            }
            if let Some(files) = files {
                q = q.files(&files);
            }
            // A one-member node set goes through the single-node
            // shorthand.
            if let Some(nodes) = nodes {
                q = match nodes.as_slice() {
                    [one] => q.node(*one),
                    set => q.nodes(set),
                };
            }
            if let Some(bits) = ops {
                let mut set = OpSet::empty();
                for (bit, op) in [
                    OpClass::JobStart,
                    OpClass::JobEnd,
                    OpClass::Open,
                    OpClass::Close,
                    OpClass::Read,
                    OpClass::Write,
                    OpClass::Delete,
                ]
                .into_iter()
                .enumerate()
                {
                    if bits & (1 << bit) != 0 {
                        set = set.with(op);
                    }
                }
                q = q.ops(set);
            }
            q
        })
}

/// One piece of a hostile varint column: a well-formed varint of any
/// width, an overlong one (redundant zero groups, past ten bytes at the
/// extreme), an overflowing ten-or-more-byte one, or a single raw byte
/// that carries a continuation bit three times in four.
fn arb_varint_piece() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (any::<u64>(), 0u32..64).prop_map(|(v, shift)| {
            let mut out = Vec::new();
            encode_varint_column(&[v >> shift], &mut out);
            out
        }),
        (0u64..1 << 21, 1usize..10).prop_map(|(v, extra)| {
            let mut out = Vec::new();
            encode_varint_column(&[v], &mut out);
            if let Some(last) = out.last_mut() {
                *last |= 0x80;
            }
            out.extend(std::iter::repeat_n(0x80, extra - 1));
            out.push(0);
            out
        }),
        (0usize..3, 2u8..0x80).prop_map(|(more, tenth)| {
            let mut out = vec![0xff; 9 + more];
            out.push(tenth);
            out
        }),
        (0u8..4, any::<u8>()).prop_map(|(pick, b)| vec![if pick < 3 { b | 0x80 } else { b }]),
    ]
}

/// Concatenated hostile pieces with up to seven bytes cut off the end,
/// so the last varint is often truncated.
fn arb_hostile_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(arb_varint_piece(), 0..24),
        0usize..8,
    )
        .prop_map(|(pieces, cut)| {
            let mut bytes = pieces.concat();
            bytes.truncate(bytes.len().saturating_sub(cut));
            bytes
        })
}

/// A dictionary column that is well formed up to its damage: a
/// dictionary length (sometimes past a byte index), at times one
/// dictionary byte fewer than it claims, indices that sometimes leave the
/// dictionary, and a cut tail.
fn arb_hostile_dict() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (
            prop_oneof![0u64..8, 250u64..260],
            proptest::collection::vec(any::<u8>(), 1..8),
            0usize..2,
            proptest::collection::vec(0u8..9, 0..40),
            0usize..4,
        )
            .prop_map(|(dict_len, dict, short, indices, cut)| {
                let mut bytes = Vec::new();
                encode_varint_column(&[dict_len], &mut bytes);
                let fill = usize::try_from(dict_len).unwrap_or(0).min(256);
                bytes.extend(
                    dict.iter()
                        .copied()
                        .cycle()
                        .take(fill.saturating_sub(short)),
                );
                bytes.extend(indices);
                bytes.truncate(bytes.len().saturating_sub(cut));
                bytes
            }),
        arb_hostile_bytes(),
    ]
}

/// The reference: one LEB128 varint read a byte at a time, with the
/// format's truncation and overflow rules (at most 64 value bits).
fn ref_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = buf.split_first()?;
        *buf = rest;
        let low = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && low > 1) {
            return None;
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// `n` reference varints: the values and the bytes left, or the bytes
/// left where the first bad varint stopped the read.
fn ref_varints(mut buf: &[u8], n: usize) -> Result<(Vec<u64>, usize), usize> {
    let mut values = Vec::new();
    for _ in 0..n {
        values.push(ref_varint(&mut buf).ok_or(buf.len())?);
    }
    Ok((values, buf.len()))
}

/// `n` reference dictionary values, index by index.
fn ref_dict(mut buf: &[u8], n: usize) -> Option<(Vec<u8>, usize)> {
    let dict_len = usize::try_from(ref_varint(&mut buf)?).ok()?;
    if dict_len > 256 || buf.len() < dict_len {
        return None;
    }
    let (dict, mut buf) = buf.split_at(dict_len);
    let values = match dict_len {
        0 if n == 0 => Vec::new(),
        0 => return None,
        1 => vec![dict[0]; n],
        _ => {
            let mut values = Vec::new();
            for _ in 0..n {
                let (&idx, rest) = buf.split_first()?;
                buf = rest;
                values.push(*dict.get(usize::from(idx))?);
            }
            values
        }
    };
    Some((values, buf.len()))
}

const META: ArchiveMeta = ArchiveMeta {
    seed: 4994,
    scale: 0.05,
};

proptest! {
    /// Varint columns are a bijection on arbitrary u64 sequences.
    #[test]
    fn varint_column_round_trips(values in proptest::collection::vec(any::<u64>(), 0..200)) {
        let mut out = Vec::new();
        encode_varint_column(&values, &mut out);
        let mut buf = out.as_slice();
        prop_assert_eq!(decode_varint_column(&mut buf, values.len()).unwrap(), values);
        prop_assert!(buf.is_empty(), "no trailing bytes");
    }

    /// Delta columns are a bijection even on unsorted, wrapping sequences.
    #[test]
    fn delta_column_round_trips(values in proptest::collection::vec(any::<u64>(), 0..200)) {
        let mut out = Vec::new();
        encode_delta_column(&values, &mut out);
        let mut buf = out.as_slice();
        prop_assert_eq!(decode_delta_column(&mut buf, values.len()).unwrap(), values);
        prop_assert!(buf.is_empty());
    }

    /// Zigzag is a bijection on all of i64.
    #[test]
    fn zigzag_round_trips(v in any::<i64>()) {
        prop_assert_eq!(unzigzag(zigzag(v)), v);
    }

    /// Dictionary columns are a bijection on arbitrary byte sequences.
    #[test]
    fn dict_column_round_trips(values in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut out = Vec::new();
        encode_dict_column(&values, &mut out);
        let mut buf = out.as_slice();
        prop_assert_eq!(decode_dict_column(&mut buf, values.len()).unwrap(), values);
        prop_assert!(buf.is_empty());
    }

    /// An archive reproduces any record stream exactly, and re-encoding
    /// the stream reproduces the bytes (canonical form).
    #[test]
    fn archive_round_trips_any_stream(events in arb_stream()) {
        let bytes = write_archive(&events, META);
        let archive = Archive::from_bytes(bytes.clone()).unwrap();
        prop_assert_eq!(archive.rows(), events.len() as u64);
        prop_assert_eq!(archive.events().unwrap(), events.clone());
        prop_assert_eq!(write_archive(&events, META), bytes);
    }

    /// Pruned, parallel scans agree exactly with a plain filter of the
    /// full stream — zone maps never drop a matching record.
    #[test]
    fn pruning_never_drops_a_match(events in arb_stream(), q in arb_query(), workers in 1usize..5) {
        let archive = Archive::from_bytes(write_archive(&events, META)).unwrap();
        let got = archive.query(q.clone()).workers(workers).events().unwrap();
        let want: Vec<OrderedEvent> =
            events.iter().filter(|e| q.matches(e)).copied().collect();
        prop_assert_eq!(got, want);
    }

    /// The `_into` decoders (the batched u64-probe / prefix-sum loops
    /// behind the predicate-first scan) append exactly what the
    /// allocating decoders return, even onto a non-empty buffer — over
    /// both one-byte-dominated and multi-byte varint mixes.
    #[test]
    fn batched_decode_into_matches_the_allocating_decoders(
        values in prop_oneof![
            proptest::collection::vec(0u64..128, 0..300),
            proptest::collection::vec(any::<u64>(), 0..300),
        ],
        prefix in proptest::collection::vec(any::<u64>(), 0..5),
    ) {
        let mut enc = Vec::new();
        encode_varint_column(&values, &mut enc);
        let mut out = prefix.clone();
        let mut buf = enc.as_slice();
        decode_varint_column_into(&mut buf, values.len(), &mut out).unwrap();
        prop_assert!(buf.is_empty());
        prop_assert_eq!(&out[prefix.len()..], values.as_slice());

        let mut enc = Vec::new();
        encode_delta_column(&values, &mut enc);
        let mut out = prefix.clone();
        let mut buf = enc.as_slice();
        decode_delta_column_into(&mut buf, values.len(), &mut out).unwrap();
        prop_assert!(buf.is_empty());
        prop_assert_eq!(&out[prefix.len()..], values.as_slice());
    }

    /// On arbitrary bytes, every varint-shaped decoder agrees with the
    /// per-byte reference for every row count: the same values and bytes
    /// left on success, and on failure an error exactly when the
    /// reference errs, with the cursor where the reference stopped.
    #[test]
    fn varint_decoders_match_a_per_byte_reference_on_hostile_bytes(
        bytes in arb_hostile_bytes(),
    ) {
        for n in 0..=bytes.len() + 1 {
            let mut buf = bytes.as_slice();
            let mut out = vec![7];
            let got = decode_varint_column_into(&mut buf, n, &mut out);
            match ref_varints(&bytes, n) {
                Ok((values, left)) => {
                    prop_assert!(got.is_ok(), "n={n} bytes={bytes:02x?}");
                    prop_assert_eq!(&out[1..], values.as_slice(), "n={n} bytes={bytes:02x?}");
                    prop_assert_eq!(buf.len(), left);
                }
                Err(left) => {
                    prop_assert!(got.is_err(), "n={n} bytes={bytes:02x?}");
                    prop_assert_eq!(buf.len(), left, "n={n} bytes={bytes:02x?}");
                }
            }

            let mut buf = bytes.as_slice();
            let got = decode_delta_column(&mut buf, n);
            match ref_varints(&bytes, n) {
                Ok((zigzags, left)) => {
                    let mut prev = 0u64;
                    let values: Vec<u64> = zigzags
                        .iter()
                        .map(|&z| {
                            prev = prev.wrapping_add(unzigzag(z) as u64);
                            prev
                        })
                        .collect();
                    prop_assert_eq!(got.ok(), Some(values), "n={n} bytes={bytes:02x?}");
                    prop_assert_eq!(buf.len(), left);
                }
                Err(left) => {
                    prop_assert!(got.is_err(), "n={n} bytes={bytes:02x?}");
                    prop_assert_eq!(buf.len(), left);
                }
            }
        }
    }

    /// On arbitrary dictionary columns — short dictionaries, indices out
    /// of range, index runs shorter than the row count — the table decode
    /// matches the index-by-index reference: the same values and bytes
    /// left on success, an error exactly when the reference errs.
    #[test]
    fn dict_decode_matches_a_per_index_reference_on_hostile_bytes(
        bytes in arb_hostile_dict(),
    ) {
        for n in 0..=bytes.len() + 1 {
            let mut buf = bytes.as_slice();
            let got = decode_dict_column(&mut buf, n);
            match ref_dict(&bytes, n) {
                Some((values, left)) => {
                    prop_assert_eq!(got.ok(), Some(values), "n={n} bytes={bytes:02x?}");
                    prop_assert_eq!(buf.len(), left);
                }
                None => prop_assert!(got.is_err(), "n={n} bytes={bytes:02x?}"),
            }
        }
    }

    /// The late-materialized scan is exactly a filter for arbitrary
    /// queries, worker counts, and *segment boundaries* — down to
    /// one-row segments — including uniform streams (constant-column
    /// dictionary elision) and the guaranteed-empty selection.
    #[test]
    fn late_materialized_scan_is_a_filter_across_segment_boundaries(
        events in prop_oneof![arb_stream(), arb_uniform_stream()],
        seg_rows in 1usize..80,
        q in arb_query(),
        workers in 1usize..5,
    ) {
        let segments: Vec<SealedSegment> = events
            .chunks(seg_rows)
            .map(|chunk| {
                let mut b = SegmentBuilder::default();
                for e in chunk {
                    b.push(e);
                }
                b.seal()
            })
            .collect();
        let reader = ArchiveReader::new(META, segments);
        let got = reader.query(q.clone()).workers(workers).events().unwrap();
        let want: Vec<OrderedEvent> =
            events.iter().filter(|e| q.matches(e)).copied().collect();
        prop_assert_eq!(got, want);

        // Empty-selection edge: an empty job set matches nothing, so the
        // predicate phase must reject every row and the materialize
        // phase must never run — on every segment geometry.
        let empty = reader.query(q.jobs(&[])).workers(workers).events().unwrap();
        prop_assert!(empty.is_empty());
    }
}
