//! Property tests for the columnar archive.
//!
//! Three layers, three promises:
//! * every column codec is a bijection on arbitrary value sequences, the
//!   encoders write exactly the bytes of a per-byte reference writer, and
//!   the batched decoders agree with a per-byte reference decoder on
//!   arbitrary (hostile) bytes;
//! * the archive round-trips arbitrary record streams exactly (and the
//!   bytes are canonical — re-encoding yields the same bytes);
//! * zone-map pruning is *conservative*: for an arbitrary query over an
//!   arbitrary stream, the pruned parallel scan returns exactly the
//!   records a plain filter over the full stream returns — pruning can
//!   skip work but never drop a match.

use bytes::{BufMut, Bytes};
use charisma_ipsc::SimTime;
use charisma_store::{
    decode_delta_column_into, decode_dict_column, decode_varint_column_into, encode_delta_column,
    encode_dict_column, encode_varint_column, unzigzag, write_archive, zigzag, Archive,
    ArchiveMeta, ArchiveReader, OpClass, OpSet, Query, SealedSegment, SegmentBuilder, StoreError,
    TimePage, ZoneMap, PAGE_ROWS, SEGMENT_ROWS,
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
            ref_put_varint(&mut out, v >> shift);
            out
        }),
        (0u64..1 << 21, 1usize..10).prop_map(|(v, extra)| {
            let mut out = Vec::new();
            ref_put_varint(&mut out, v);
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
                ref_put_varint(&mut bytes, dict_len);
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

/// The reference writer: `v` as one LEB128 varint, a byte at a time —
/// seven value bits per byte, low bits first, the high bit of every byte
/// but the last set.
fn ref_put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let low = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(low);
            return;
        }
        out.push(low | 0x80);
    }
}

/// The reference varint column: one reference varint per value.
fn ref_varint_column(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    for &v in values {
        ref_put_varint(&mut out, v);
    }
    out
}

/// The reference delta column: each value's wrapping delta from the one
/// before (the first from 0), zigzagged (0, -1, 1, -2 → 0, 1, 2, 3) and
/// written by the reference writer.
fn ref_delta_column(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prev = 0u64;
    for &v in values {
        let delta = v.wrapping_sub(prev) as i64;
        ref_put_varint(&mut out, ((delta << 1) ^ (delta >> 63)) as u64);
        prev = v;
    }
    out
}

/// The reference dictionary column: the distinct bytes in order of first
/// appearance behind their count, then each row's position in that list
/// unless the list has one entry.
fn ref_dict_column(values: &[u8]) -> Vec<u8> {
    let mut dict: Vec<u8> = Vec::new();
    for v in values {
        if !dict.contains(v) {
            dict.push(*v);
        }
    }
    let mut out = Vec::new();
    ref_put_varint(&mut out, dict.len() as u64);
    out.extend_from_slice(&dict);
    if dict.len() > 1 {
        for v in values {
            let idx = dict.iter().position(|d| d == v).expect("in the dictionary");
            out.push(u8::try_from(idx).expect("at most 256 entries"));
        }
    }
    out
}

/// Every varint length boundary with its length in bytes: 0, then
/// 2^(7k) - 1 and 2^(7k) (the largest k-byte and the smallest
/// (k+1)-byte value) for k = 1..9, then `u64::MAX`.
fn varint_boundaries() -> Vec<(u64, usize)> {
    let mut values = vec![(0, 1)];
    for k in 1..=9 {
        values.push(((1u64 << (7 * k)) - 1, k));
        values.push((1u64 << (7 * k), k + 1));
    }
    values.push((u64::MAX, 10));
    values
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

/// The archive's integrity checksum, re-derived from its description in
/// the store's `integrity` module: four length-seeded lanes, lane `i`
/// stepping through word `i` of every whole 32-byte block, then a fresh
/// length-seeded state that takes the four lanes in order and the
/// remaining little-endian 8-byte words (the last one zero-padded), each
/// by one multiply-rotate step, then a xorshift-multiply finalizer.
fn ref_checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(K).rotate_left(29);
    let le = |chunk: &[u8]| {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        u64::from_le_bytes(word)
    };
    let seed = 0xcbf2_9ce4_8422_2325 ^ (bytes.len() as u64).wrapping_mul(K);
    let whole = bytes.len() / 32 * 32;
    let mut h = seed;
    for lane in 0..4 {
        let mut l = seed;
        for block in bytes[..whole].chunks(32) {
            l = step(l, le(&block[8 * lane..8 * lane + 8]));
        }
        h = step(h, l);
    }
    for chunk in bytes[whole..].chunks(8) {
        h = step(h, le(chunk));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// The ten column byte strings of a sealed segment, in schema order.
fn columns_of(seg: &SealedSegment) -> Vec<Vec<u8>> {
    let blob = seg.bytes();
    let mut buf = &blob[..blob.len() - 8];
    ref_varint(&mut buf).expect("row count");
    (0..10)
        .map(|_| {
            let len = ref_varint(&mut buf).expect("column length") as usize;
            let (col, rest) = buf.split_at(len);
            buf = rest;
            col.to_vec()
        })
        .collect()
}

/// Frame `columns` as a segment of `rows` rows, seal it with the format's
/// checksum, and give it `zone`.
fn reseal(rows: usize, columns: &[Vec<u8>], zone: ZoneMap) -> SealedSegment {
    let mut blob = Vec::new();
    ref_put_varint(&mut blob, rows as u64);
    for col in columns {
        ref_put_varint(&mut blob, col.len() as u64);
        blob.extend_from_slice(col);
    }
    let sum = ref_checksum(&blob);
    blob.extend_from_slice(&sum.to_le_bytes());
    SealedSegment::from_parts(Bytes::from(blob), zone)
}

/// Which columns are dictionary columns (op, mode, flags) and which of
/// the rest are delta columns (time, offset, size), in schema order.
const DICT_COLUMNS: [usize; 3] = [2, 6, 7];
const DELTA_COLUMNS: [usize; 3] = [0, 8, 9];

/// The longest prefix of at most `n` rows the per-byte reference decodes
/// from one column.
fn ref_column_prefix(col: usize, bytes: &[u8], n: usize) -> Vec<u64> {
    if DICT_COLUMNS.contains(&col) {
        return (0..=n)
            .rev()
            .find_map(|k| ref_dict(bytes, k))
            .map(|(values, _)| values.into_iter().map(u64::from).collect())
            .unwrap_or_default();
    }
    let mut buf = bytes;
    let mut prev = 0u64;
    std::iter::from_fn(|| ref_varint(&mut buf))
        .take(n)
        .map(|v| {
            if DELTA_COLUMNS.contains(&col) {
                prev = prev.wrapping_add(unzigzag(v) as u64);
                prev
            } else {
                v
            }
        })
        .collect()
}

/// The event one row of column values stands for, if any: the values
/// re-encoded canonically as a one-row segment and decoded.
fn ref_event(values: &[u64], zone: ZoneMap) -> Option<OrderedEvent> {
    let columns: Vec<Vec<u8>> = values
        .iter()
        .enumerate()
        .map(|(col, &v)| {
            Some(if DICT_COLUMNS.contains(&col) {
                ref_dict_column(&[u8::try_from(v).ok()?])
            } else if DELTA_COLUMNS.contains(&col) {
                ref_delta_column(&[v])
            } else {
                ref_varint_column(&[v])
            })
        })
        .collect::<Option<_>>()?;
    let mut zone = zone;
    zone.rows = 1;
    match reseal(1, &columns, zone).events().ok()?.as_slice() {
        [e] => Some(*e),
        _ => None,
    }
}

/// Scan the segment `columns` re-seal into under each query: an error
/// is allowed, a success must return exactly the reference rows. A scan
/// that succeeds cannot have selected a row past the shortest decodable
/// column prefix, nor one that makes no event.
fn scan_matches_the_reference_or_errs(
    rows: usize,
    columns: &[Vec<u8>],
    zone: ZoneMap,
    queries: &[Query],
) {
    let reader = ArchiveReader::new(META, vec![reseal(rows, columns, zone)]);
    let prefixes: Vec<Vec<u64>> = columns
        .iter()
        .enumerate()
        .map(|(col, bytes)| ref_column_prefix(col, bytes, rows))
        .collect();
    let decodable = prefixes.iter().map(Vec::len).min().unwrap_or(0);
    let reference: Vec<OrderedEvent> = (0..decodable)
        .filter_map(|row| {
            let values: Vec<u64> = prefixes.iter().map(|p| p[row]).collect();
            ref_event(&values, zone)
        })
        .collect();
    for q in queries {
        let Ok(got) = reader.query(q.clone()).events() else {
            continue;
        };
        let want: Vec<OrderedEvent> = if q.admits(&zone) {
            reference.iter().filter(|e| q.matches(e)).copied().collect()
        } else {
            Vec::new()
        };
        assert_eq!(got, want, "query {q:?} columns {columns:02x?}");
    }
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
        encode_varint_column(values.iter().copied(), &mut out);
        let mut buf = out.as_slice();
        let mut got = Vec::new();
        decode_varint_column_into(&mut buf, values.len(), &mut got).unwrap();
        prop_assert_eq!(got, values);
        prop_assert!(buf.is_empty(), "no trailing bytes");
    }

    /// Delta columns are a bijection even on unsorted, wrapping sequences.
    #[test]
    fn delta_column_round_trips(values in proptest::collection::vec(any::<u64>(), 0..200)) {
        let mut out = Vec::new();
        encode_delta_column(values.iter().copied(), &mut out);
        let mut buf = out.as_slice();
        let mut got = Vec::new();
        decode_delta_column_into(&mut buf, values.len(), &mut got).unwrap();
        prop_assert_eq!(got, values);
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
        encode_dict_column(values.iter().copied(), &mut out);
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
    /// behind the predicate phase of the scan) append exactly the encoded
    /// values, even onto a non-empty buffer — over both
    /// one-byte-dominated and multi-byte varint mixes.
    #[test]
    fn batched_decode_into_appends_exactly_the_encoded_values(
        values in prop_oneof![
            proptest::collection::vec(0u64..128, 0..300),
            proptest::collection::vec(any::<u64>(), 0..300),
        ],
        prefix in proptest::collection::vec(any::<u64>(), 0..5),
    ) {
        let mut enc = Vec::new();
        encode_varint_column(values.iter().copied(), &mut enc);
        let mut out = prefix.clone();
        let mut buf = enc.as_slice();
        decode_varint_column_into(&mut buf, values.len(), &mut out).unwrap();
        prop_assert!(buf.is_empty());
        prop_assert_eq!(&out[prefix.len()..], values.as_slice());

        let mut enc = Vec::new();
        encode_delta_column(values.iter().copied(), &mut enc);
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
            let mut out = Vec::new();
            let got = decode_delta_column_into(&mut buf, n, &mut out).map(|()| out);
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

    /// A segment with one column, or all ten, replaced by hostile bytes
    /// after a clean prefix of the column's own bytes, and re-sealed with
    /// a valid checksum, never panics a scan; and a scan that succeeds
    /// returns exactly the rows the per-byte reference decodes and the
    /// query matches — under an arbitrary query, a time prefix (late
    /// columns read only part way) and the full decode.
    #[test]
    fn a_resealed_segment_with_hostile_columns_scans_as_the_reference_or_errs(
        events in arb_stream(),
        rows in 1usize..40,
        varints in proptest::collection::vec(arb_hostile_bytes(), 10),
        dicts in proptest::collection::vec(arb_hostile_dict(), 10),
        keep in proptest::collection::vec(0usize..48, 10),
        q in arb_query(),
        prefix_end in 0u64..100_000,
    ) {
        let events = &events[..rows.min(events.len())];
        let mut b = SegmentBuilder::default();
        for e in events {
            b.push(e).unwrap();
        }
        let base = b.seal();
        let zone = *base.zone();
        let clean = columns_of(&base);
        prop_assert_eq!(reseal(events.len(), &clean, zone), base, "the reference seal");
        let queries = [
            q,
            Query::all().time_window(SimTime::ZERO, SimTime::from_micros(prefix_end)),
            Query::all(),
        ];
        for damaged in (0..10).map(|col| vec![col]).chain([(0..10).collect()]) {
            let mut columns = clean.clone();
            for col in damaged {
                columns[col].truncate(keep[col]);
                columns[col].extend(if DICT_COLUMNS.contains(&col) {
                    &dicts[col]
                } else {
                    &varints[col]
                });
            }
            scan_matches_the_reference_or_errs(events.len(), &columns, zone, &queries);
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
                    b.push(e).unwrap();
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

/// The varint writer — the shim's `put_varint_u64` and the codec's
/// varint and delta columns — writes exactly the reference bytes at every
/// length boundary, alone and appended to bytes already written.
#[test]
fn varint_writers_match_the_reference_at_every_length_boundary() {
    let boundaries = varint_boundaries();
    for &(v, len) in &boundaries {
        let want = ref_varint_column(&[v]);
        assert_eq!(want.len(), len, "reference length of {v:#x}");
        let mut put = vec![0xa5];
        put.put_varint_u64(v);
        assert_eq!(put[1..], want, "put_varint_u64({v:#x})");
        let mut column = Vec::new();
        encode_varint_column([v], &mut column);
        assert_eq!(column, want, "varint column of {v:#x}");
    }
    let values: Vec<u64> = boundaries.iter().map(|&(v, _)| v).collect();
    let mut column = vec![0xa5];
    encode_varint_column(values.iter().copied(), &mut column);
    assert_eq!(column[1..], ref_varint_column(&values));
    let mut column = vec![0xa5];
    encode_delta_column(values.iter().copied(), &mut column);
    assert_eq!(column[1..], ref_delta_column(&values));
    // Descending, so every delta is negative and zigzags to an odd code.
    let down: Vec<u64> = values.iter().rev().copied().collect();
    let mut column = Vec::new();
    encode_delta_column(down.iter().copied(), &mut column);
    assert_eq!(column, ref_delta_column(&down));
}

/// The dictionary encoder writes the reference bytes on an empty, a
/// constant, a two-value and an all-256-distinct column.
#[test]
fn dict_writer_matches_the_reference_on_edge_alphabets() {
    let all: Vec<u8> = (0..=255u8).map(|b| b.wrapping_mul(167)).collect();
    let twice: Vec<u8> = all.iter().chain(all.iter().rev()).copied().collect();
    let columns: [&[u8]; 6] = [&[], &[7; 300], &[3, 9, 9, 3, 3, 9], &[255, 0], &all, &twice];
    for values in columns {
        let mut out = Vec::new();
        encode_dict_column(values.iter().copied(), &mut out);
        assert_eq!(out, ref_dict_column(values), "column {values:?}");
    }
}

proptest! {
    /// On arbitrary values of every width, the varint and delta columns
    /// and the shim's writer produce exactly the reference bytes.
    #[test]
    fn varint_writers_match_the_reference_on_any_values(
        raw in proptest::collection::vec((any::<u64>(), 0u32..64), 0..200),
    ) {
        let values: Vec<u64> = raw.iter().map(|&(v, shift)| v >> shift).collect();
        let mut column = Vec::new();
        encode_varint_column(values.iter().copied(), &mut column);
        prop_assert_eq!(&column, &ref_varint_column(&values));
        let mut put = Vec::new();
        for &v in &values {
            put.put_varint_u64(v);
        }
        prop_assert_eq!(&put, &column);
        let mut column = Vec::new();
        encode_delta_column(values.iter().copied(), &mut column);
        prop_assert_eq!(column, ref_delta_column(&values));
    }

    /// On arbitrary bytes, over small and full alphabets, the dictionary
    /// encoder produces exactly the reference bytes.
    #[test]
    fn dict_writer_matches_the_reference_on_any_bytes(
        values in prop_oneof![
            proptest::collection::vec(0u8..3, 0..300),
            proptest::collection::vec(any::<u8>(), 0..600),
        ],
    ) {
        let mut out = Vec::new();
        encode_dict_column(values.iter().copied(), &mut out);
        prop_assert_eq!(out, ref_dict_column(&values));
    }

    /// A builder takes rows up to `SEGMENT_ROWS` and refuses every row
    /// past it, and whatever it seals — the full segment included — is
    /// a container its own reader reopens with exactly the accepted rows.
    #[test]
    fn every_sealable_builder_reopens_from_its_container(
        events in arb_stream(),
        rows in prop_oneof![Just(SEGMENT_ROWS), 1..=SEGMENT_ROWS],
        extra in 0usize..3,
    ) {
        let fallback = [OrderedEvent {
            time: SimTime::from_micros(1),
            node: 0,
            body: EventBody::JobEnd { job: 1 },
        }];
        let events = if events.is_empty() { &fallback[..] } else { &events[..] };
        let mut b = SegmentBuilder::default();
        let mut accepted = Vec::new();
        for e in events.iter().cycle().take(rows + extra) {
            match b.push(e) {
                Ok(()) => accepted.push(*e),
                Err(StoreError::SegmentFull) => prop_assert_eq!(b.len(), SEGMENT_ROWS),
                Err(other) => panic!("push failed: {other}"),
            }
        }
        prop_assert_eq!(accepted.len(), (rows + extra).min(SEGMENT_ROWS));
        let reader = ArchiveReader::new(META, vec![b.seal()]);
        let reopened = Archive::from_bytes(reader.to_bytes()).unwrap();
        prop_assert_eq!(reopened.events().unwrap(), accepted);
    }
}

/// Rows for one segment of `rows` rows: bodies and times cycled from the
/// drawn ones, times sorted (the merged stream's order) or left in drawn
/// order, with long idle gaps so most time pages hold a burst.
fn paged_rows(rows: usize, bodies: &[EventBody], times: &[u64], sorted: bool) -> Vec<OrderedEvent> {
    let mut times: Vec<u64> = (0..rows)
        .map(|i| times[i % times.len()] + (i / times.len()) as u64 * 100_000)
        .collect();
    if sorted {
        times.sort_unstable();
    }
    times
        .into_iter()
        .enumerate()
        .map(|(i, t)| OrderedEvent {
            time: SimTime::from_micros(t),
            node: (i % 8) as u16,
            body: bodies[i % bodies.len()],
        })
        .collect()
}

/// Time windows on and around page edges: the single times of the rows
/// either side of the first two page boundaries, the last one and the
/// boundary `pick` chooses, windows ending or starting at them and
/// spanning them, and those pages' own bounds and the gap just past them.
fn page_edge_windows(events: &[OrderedEvent], pages: &[TimePage], pick: usize) -> Vec<(u64, u64)> {
    let time = |i: usize| events[i].time.as_micros();
    let last = pages.len() - 1;
    let chosen = [0, 1, 2, last, pick % pages.len()];
    let mut windows = Vec::new();
    for p in chosen {
        let edge = p * PAGE_ROWS;
        for row in [edge.wrapping_sub(1), edge] {
            if row < events.len() {
                let t = time(row);
                windows.extend([(t, t), (t.saturating_sub(1), t), (t, t + 1)]);
            }
        }
        if edge > 0 && edge < events.len() {
            windows.push((time(edge - 1), time(edge)));
        }
        if let Some(page) = pages.get(p) {
            windows.extend([(page.min, page.max), (page.max + 1, page.max + 1)]);
        }
    }
    windows
}

/// A query's events from a one-segment catalog, errors as text.
fn scan_one(seg: &SealedSegment, q: &Query) -> Result<Vec<OrderedEvent>, String> {
    ArchiveReader::new(META, vec![seg.clone()])
        .query(q.clone())
        .events()
        .map_err(|e| format!("{e:?}"))
}

/// `seg` written into a container and reopened: its time page index, if
/// any, is decoded from the bytes.
fn reopened(seg: &SealedSegment) -> SealedSegment {
    let bytes = ArchiveReader::new(META, vec![seg.clone()]).to_bytes();
    let archive = Archive::from_bytes(bytes).expect("reopens");
    archive.reader().segments()[0].clone()
}

proptest! {
    /// A segment scans the same whichever way it came by its time page
    /// index — the encoder's at seal, one decoded by `from_bytes`, or none
    /// from `from_parts` — for arbitrary queries and windows on page
    /// edges, over sorted and unsorted times and segments of one page,
    /// one row short of and past a page, and a full segment. Damage to a
    /// column gives the same result, error included, with and without the
    /// index; and a time column with one value too many gets no index and
    /// fails as it does without one.
    #[test]
    fn a_time_page_index_scans_like_no_index(
        rows in prop_oneof![
            Just(1usize),
            Just(PAGE_ROWS - 1),
            Just(PAGE_ROWS),
            Just(PAGE_ROWS + 1),
            Just(SEGMENT_ROWS),
            1usize..600,
        ],
        bodies in proptest::collection::vec(arb_body(), 1..40),
        times in proptest::collection::vec(0u64..100_000, 1..300),
        sorted in prop_oneof![Just(true), Just(true), Just(false)],
        queries in proptest::collection::vec(arb_query(), 4),
        damaged in 0usize..10,
        keep_percent in 0usize..=100,
        hostile in arb_hostile_bytes(),
        hostile_dict in arb_hostile_dict(),
        pick in any::<usize>(),
    ) {
        let events = paged_rows(rows, &bodies, &times, sorted);
        let mut b = SegmentBuilder::default();
        for e in &events {
            b.push(e).unwrap();
        }
        let sealed = b.seal();
        let zone = *sealed.zone();
        let decoded = reopened(&sealed);
        let bare = SealedSegment::from_parts(sealed.bytes().clone(), zone);
        let pages = sealed.time_pages().expect("a sealed segment has an index");
        prop_assert_eq!(pages.len(), rows.div_ceil(PAGE_ROWS));
        prop_assert_eq!(decoded.time_pages(), Some(pages), "encoder pages = decoded pages");
        prop_assert_eq!(bare.time_pages(), None);
        prop_assert!(sealed == decoded && decoded == bare, "equality ignores the index");

        let mut all = queries.clone();
        all.push(Query::all());
        for (from, to) in page_edge_windows(&events, pages, pick) {
            let window = Query::all().time_window(SimTime::from_micros(from), SimTime::from_micros(to));
            all.push(window.clone().ops(OpSet::requests()));
            all.push(window);
        }
        for q in &all {
            let want: Vec<OrderedEvent> = events.iter().filter(|e| q.matches(e)).copied().collect();
            let got = scan_one(&sealed, q);
            prop_assert_eq!(&got, &Ok(want), "query {:?}", q);
            prop_assert_eq!(&scan_one(&decoded, q), &got, "query {:?}", q);
            prop_assert_eq!(&scan_one(&bare, q), &got, "query {:?}", q);
        }

        // One column cut short and followed by hostile bytes: reopened, the
        // segment keeps an index exactly when its time column still
        // decodes whole, and scans as the index-free copy does.
        let mut columns = columns_of(&sealed);
        let col = &mut columns[damaged];
        col.truncate(col.len() * keep_percent / 100);
        col.extend(if DICT_COLUMNS.contains(&damaged) { &hostile_dict } else { &hostile });
        let broken = reseal(rows, &columns, zone);
        let broken_decoded = reopened(&broken);
        if damaged != 0 {
            prop_assert_eq!(broken_decoded.time_pages(), Some(pages));
        }
        for q in &all {
            prop_assert_eq!(scan_one(&broken_decoded, q), scan_one(&broken, q), "query {:?}", q);
        }

        // One value too many in the time column: no index, and the same
        // failure as without one.
        let mut columns = columns_of(&sealed);
        columns[0].push(0);
        let extra = reseal(rows, &columns, zone);
        let extra_decoded = reopened(&extra);
        prop_assert_eq!(extra_decoded.time_pages(), None);
        let trailing = Err(format!("{:?}", StoreError::Corrupt("trailing bytes in column")));
        let window = Query::all().time_window(SimTime::ZERO, SimTime::from_micros(pages[0].max));
        for q in [Query::all(), window] {
            prop_assert_eq!(&scan_one(&extra_decoded, &q), &trailing, "query {:?}", q);
            prop_assert_eq!(&scan_one(&extra, &q), &trailing, "query {:?}", q);
        }
    }
}
