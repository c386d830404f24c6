//! Column encoders: the three primitive encodings every archive column
//! uses.
//!
//! * [`encode_varint_column`] — one LEB128 varint per value; right for
//!   identifier columns (node, job, file, session) whose values are small
//!   but not ordered.
//! * [`encode_delta_column`] — zigzag-encoded wrapping deltas between
//!   successive values, each written as a varint; right for columns that
//!   are sorted or locally clustered (times, offsets, sizes), where the
//!   deltas are tiny even when the absolute values are not.
//! * [`encode_dict_column`] — a per-segment dictionary of the distinct
//!   byte values in first-appearance order, followed by one index byte per
//!   row (omitted entirely when the segment is constant); right for the
//!   op-tag, I/O-mode, and flags columns, which draw from single-digit
//!   alphabets.
//!
//! Every encoding is a pure function of the value sequence — no
//! timestamps, no randomness, no map iteration — which is what lets the
//! archive promise canonical bytes. Every decoder is total: corrupt input
//! yields [`StoreError`], never a panic.
//!
//! # Batched decode
//!
//! The decoders come in two shapes: the original `decode_*_column`
//! functions allocate and return a vector, and the `decode_*_column_into`
//! variants append into a caller-owned buffer. Both run the same batched
//! core, which reads varints a little-endian u64 window (eight bytes) at a
//! time:
//!
//! * when no byte in the window carries a continuation bit, all eight are
//!   complete one-byte varints and are emitted without per-value
//!   branching — the common case for identifier columns and for the tiny
//!   zigzag deltas of sorted time/offset columns;
//! * otherwise the lowest clear continuation bit of the same window gives
//!   the length of the next varint, and a value of two to eight bytes is
//!   assembled from the window by masking off the continuation bits and
//!   closing the gaps between the 7-bit groups in three mask-and-shift
//!   steps (pairs, quads, then the two halves). Session ids carry their
//!   shard in bits 24 and up, so nearly every session value takes this
//!   path as a four-byte varint; time, offset and size deltas mostly take
//!   two or three.
//!
//! Only a varint of nine or more bytes, or one starting in the last seven
//! bytes of the buffer, goes through the per-byte decoder. Every
//! two-to-eight-byte varint is well formed (it carries at most 56 value
//! bits), so the word path can never be the one to report an error: any
//! corrupt input errs on the per-byte path exactly where it always did.
//!
//! Delta columns decode their zigzag varints first, then rebuild absolute
//! values with a chunked wrapping prefix sum over the decoded buffer.
//! Dictionary columns check the largest index once against the dictionary
//! length, then map the whole run through a 256-entry table with no
//! per-row branch. The predicate-first
//! segment scan (`scan` module) and the full decode share these exact
//! loops.

use bytes::{Buf, BufMut};

use crate::StoreError;

/// Continuation-bit mask over an eight-byte varint probe window.
const VARINT_PROBE_MASK: u64 = 0x8080_8080_8080_8080;

/// Value-bit mask over an eight-byte varint probe window.
const VARINT_VALUE_MASK: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// Map a signed delta onto an unsigned varint-friendly value: small
/// magnitudes of either sign get small codes (0 → 0, -1 → 1, 1 → 2, ...).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
#[inline]
pub fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Append `values` as one varint each.
pub fn encode_varint_column(values: &[u64], out: &mut Vec<u8>) {
    for &v in values {
        out.put_varint_u64(v);
    }
}

/// Decode `n` varints written by [`encode_varint_column`].
pub fn decode_varint_column(buf: &mut &[u8], n: usize) -> Result<Vec<u64>, StoreError> {
    let mut values = Vec::with_capacity(n);
    decode_varint_column_into(buf, n, &mut values)?;
    Ok(values)
}

/// Append `n` varints from `buf` onto `out` — the batched core shared by
/// every varint-shaped decode.
///
/// The hot loop loads eight input bytes as one little-endian u64. If no
/// byte in the window has its continuation bit set, the window is eight
/// complete one-byte varints, emitted in one branch-light burst.
/// Otherwise the first clear continuation bit ends the next varint: one
/// of up to eight bytes is assembled from the window by
/// `varint_from_window`, and only a longer one falls back to the
/// per-byte decoder. Fewer than eight bytes left means the per-byte
/// decoder for the rest, so every read stays inside `buf`.
pub fn decode_varint_column_into(
    buf: &mut &[u8],
    n: usize,
    out: &mut Vec<u64>,
) -> Result<(), StoreError> {
    out.reserve(n);
    let mut remaining = n;
    while remaining > 0 && buf.len() >= 8 {
        let window = [
            buf[0], buf[1], buf[2], buf[3], buf[4], buf[5], buf[6], buf[7],
        ];
        let word = u64::from_le_bytes(window);
        // One set bit per byte that ends a varint.
        let ends = !word & VARINT_PROBE_MASK;
        if ends == VARINT_PROBE_MASK && remaining >= 8 {
            for b in window {
                out.push(u64::from(b));
            }
            *buf = &buf[8..];
            remaining -= 8;
        } else if ends == 0 {
            out.push(
                buf.try_get_varint_u64()
                    .ok_or(StoreError::Corrupt("truncated varint column"))?,
            );
            remaining -= 1;
        } else {
            let (value, len) = varint_from_window(word, ends);
            out.push(value);
            *buf = &buf[len..];
            remaining -= 1;
        }
    }
    for _ in 0..remaining {
        out.push(
            buf.try_get_varint_u64()
                .ok_or(StoreError::Corrupt("truncated varint column"))?,
        );
    }
    Ok(())
}

/// The varint at the start of the little-endian `word`, and its length
/// in bytes (1..=8), given `ends` — the word's terminator bits, which
/// must not be zero. The bytes up to and including the first terminator
/// keep their low seven bits; three mask-and-shift steps then pack the
/// groups together: byte pairs into 14-bit lanes, pairs of those into
/// 28-bit lanes, and the two halves into the final 56-bit value.
#[inline]
fn varint_from_window(word: u64, ends: u64) -> (u64, usize) {
    let last_bit = ends.trailing_zeros();
    let mut v = word & VARINT_VALUE_MASK & (u64::MAX >> (63 - last_bit));
    v = (v & 0x007f_007f_007f_007f) | ((v & 0x7f00_7f00_7f00_7f00) >> 1);
    v = (v & 0x0000_3fff_0000_3fff) | ((v & 0x3fff_0000_3fff_0000) >> 2);
    v = (v & 0x0000_0000_0fff_ffff) | ((v & 0x0fff_ffff_0000_0000) >> 4);
    (v, last_bit as usize / 8 + 1)
}

/// Append `values` as zigzag varints of the wrapping delta from the
/// previous value (the first delta is taken from 0).
pub fn encode_delta_column(values: &[u64], out: &mut Vec<u8>) {
    let mut prev = 0u64;
    for &v in values {
        out.put_varint_u64(zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

/// Decode `n` values written by [`encode_delta_column`].
pub fn decode_delta_column(buf: &mut &[u8], n: usize) -> Result<Vec<u64>, StoreError> {
    let mut values = Vec::with_capacity(n);
    decode_delta_column_into(buf, n, &mut values)?;
    Ok(values)
}

/// Append `n` values written by [`encode_delta_column`] onto `out`.
///
/// Two batched passes over the same buffer region: the raw zigzag varints
/// decode through [`decode_varint_column_into`]'s u64-window loop, then a
/// chunked wrapping prefix sum rewrites them in place into absolute
/// values — eight values per chunk with the running value kept in a
/// register, so the transform never re-reads what it just wrote.
pub fn decode_delta_column_into(
    buf: &mut &[u8],
    n: usize,
    out: &mut Vec<u64>,
) -> Result<(), StoreError> {
    let start = out.len();
    decode_varint_column_into(buf, n, out)
        .map_err(|_| StoreError::Corrupt("truncated delta column"))?;
    let mut prev = 0u64;
    let mut chunks = out[start..].chunks_exact_mut(8);
    for chunk in &mut chunks {
        for z in chunk {
            prev = prev.wrapping_add(unzigzag(*z) as u64);
            *z = prev;
        }
    }
    for z in chunks.into_remainder() {
        prev = prev.wrapping_add(unzigzag(*z) as u64);
        *z = prev;
    }
    Ok(())
}

/// Append `values` dictionary-encoded: distinct bytes in first-appearance
/// order, then one dictionary index per row. A constant column (dictionary
/// of one entry) stores no indices at all; an empty column stores only the
/// zero dictionary length.
pub fn encode_dict_column(values: &[u8], out: &mut Vec<u8>) {
    let mut dict: Vec<u8> = Vec::new();
    for &v in values {
        if !dict.contains(&v) {
            dict.push(v);
        }
    }
    out.put_varint_u64(dict.len() as u64);
    out.put_slice(&dict);
    if dict.len() > 1 {
        for &v in values {
            // Present by construction; fall back to 0 rather than panic.
            // The dictionary holds distinct u8 values, so the index always
            // fits a byte — try_from keeps that assumption checked.
            let idx = dict.iter().position(|&d| d == v).unwrap_or(0);
            out.put_u8(u8::try_from(idx).unwrap_or(0));
        }
    }
}

/// Decode `n` values written by [`encode_dict_column`].
///
/// The dictionary is read into a 256-entry table. The largest of the
/// index bytes present is checked once against the dictionary length,
/// then a short run is reported as truncated; otherwise the run maps
/// through the table in one pass.
pub fn decode_dict_column(buf: &mut &[u8], n: usize) -> Result<Vec<u8>, StoreError> {
    let dict_len = buf
        .try_get_varint_u64()
        .ok_or(StoreError::Corrupt("truncated dictionary length"))?;
    let dict_len = usize::try_from(dict_len)
        .ok()
        .filter(|&n| n <= 256)
        .ok_or(StoreError::Corrupt("dictionary larger than a byte index"))?;
    let mut table = [0u8; 256];
    buf.try_copy_to_slice(&mut table[..dict_len])
        .ok_or(StoreError::Corrupt("truncated dictionary"))?;
    match dict_len {
        0 if n == 0 => Ok(Vec::new()),
        0 => Err(StoreError::Corrupt("empty dictionary for non-empty column")),
        1 => Ok(vec![table[0]; n]),
        _ => {
            let (indices, rest) = buf.split_at(n.min(buf.len()));
            let top = indices.iter().fold(0, |top, &idx| top.max(idx));
            if usize::from(top) >= dict_len {
                return Err(StoreError::Corrupt("dictionary index out of range"));
            }
            if indices.len() < n {
                return Err(StoreError::Corrupt("truncated dictionary indices"));
            }
            *buf = rest;
            Ok(indices.iter().map(|&idx| table[usize::from(idx)]).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_is_a_bijection_on_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 4994, -4994] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn varint_column_round_trips() {
        let values = [0u64, 1, 127, 128, u64::MAX, 4994];
        let mut out = Vec::new();
        encode_varint_column(&values, &mut out);
        let mut buf = out.as_slice();
        assert_eq!(
            decode_varint_column(&mut buf, values.len()).unwrap(),
            values
        );
        assert!(buf.is_empty());
    }

    /// The smallest value whose varint takes exactly `len` bytes.
    fn smallest_of_len(len: u32) -> u64 {
        if len == 1 {
            0
        } else {
            1 << (7 * (len - 1))
        }
    }

    #[test]
    fn varints_of_every_length_decode_from_the_window_and_the_tail() {
        // The window path ends at 56 value bits: 2^56 - 1 is the largest
        // eight-byte varint, 2^56 the smallest nine-byte one.
        assert_eq!(smallest_of_len(9) - 1, (1 << 56) - 1);
        assert_eq!(smallest_of_len(9), 1 << 56);
        for len in 1..=10u32 {
            let lo = smallest_of_len(len);
            let hi = if len == 10 {
                u64::MAX
            } else {
                smallest_of_len(len + 1) - 1
            };
            for v in [lo, hi, lo | 0x55, hi & !0x3c] {
                let mut one = Vec::new();
                encode_varint_column(&[v], &mut one);
                assert_eq!(one.len(), len as usize, "value {v:#x}");
                // Alone (the per-byte tail), then followed by eight bytes
                // of padding (the window path for every length up to 8).
                for pad in [0usize, 8] {
                    let mut enc = one.clone();
                    enc.resize(one.len() + pad, 0x7f);
                    let mut buf = enc.as_slice();
                    let got = decode_varint_column(&mut buf, 1).expect("well formed");
                    assert_eq!(got, [v], "len {len} pad {pad}");
                    assert_eq!(buf.len(), pad, "len {len} pad {pad}");
                }
            }
        }
    }

    #[test]
    fn a_varint_straddling_the_last_eight_bytes_decodes_exactly() {
        // One-byte values, a four-byte one, then 0..6 more one-byte
        // values: the four-byte varint starts four to nine bytes before
        // the end of the buffer, so it is read from the window when eight
        // or more bytes remain and per byte otherwise.
        let big = 0x0abc_def0_u64; // four varint bytes
        for lead in 0..12usize {
            for trail in 0..6usize {
                let mut values = vec![5u64; lead];
                values.push(big);
                values.extend(std::iter::repeat_n(9u64, trail));
                let mut enc = Vec::new();
                encode_varint_column(&values, &mut enc);
                let mut buf = enc.as_slice();
                let mut out = vec![1];
                decode_varint_column_into(&mut buf, values.len(), &mut out).unwrap();
                assert_eq!(out[1..], values, "lead {lead} trail {trail}");
                assert!(buf.is_empty());
                // One value short: the cursor stops right before the last.
                let mut buf = enc.as_slice();
                let got = decode_varint_column(&mut buf, values.len() - 1).unwrap();
                assert_eq!(got, values[..values.len() - 1]);
                assert_eq!(buf.len(), if trail == 0 { 4 } else { 1 });
            }
        }
    }

    #[test]
    fn delta_column_round_trips_and_compresses_sorted_data() {
        let sorted: Vec<u64> = (0..1000u64).map(|i| 1_000_000 + i * 3).collect();
        let mut out = Vec::new();
        encode_delta_column(&sorted, &mut out);
        assert!(
            out.len() < 1010,
            "sorted u64s should take ~1 byte each, got {}",
            out.len()
        );
        let mut buf = out.as_slice();
        assert_eq!(decode_delta_column(&mut buf, sorted.len()).unwrap(), sorted);

        // Wrapping deltas survive arbitrary jumps, including u64::MAX.
        let wild = [u64::MAX, 0, u64::MAX / 2, 1, u64::MAX];
        let mut out = Vec::new();
        encode_delta_column(&wild, &mut out);
        let mut buf = out.as_slice();
        assert_eq!(decode_delta_column(&mut buf, wild.len()).unwrap(), wild);
    }

    #[test]
    fn dict_column_round_trips_and_elides_constant_indices() {
        let constant = vec![5u8; 100];
        let mut out = Vec::new();
        encode_dict_column(&constant, &mut out);
        assert_eq!(out.len(), 2, "constant column stores only the dictionary");
        let mut buf = out.as_slice();
        assert_eq!(decode_dict_column(&mut buf, 100).unwrap(), constant);

        let mixed = [1u8, 3, 1, 7, 3, 3, 1];
        let mut out = Vec::new();
        encode_dict_column(&mixed, &mut out);
        let mut buf = out.as_slice();
        assert_eq!(decode_dict_column(&mut buf, mixed.len()).unwrap(), mixed);

        let empty: [u8; 0] = [];
        let mut out = Vec::new();
        encode_dict_column(&empty, &mut out);
        let mut buf = out.as_slice();
        assert!(decode_dict_column(&mut buf, 0).unwrap().is_empty());
    }

    #[test]
    fn corrupt_columns_error_instead_of_panicking() {
        let mut buf: &[u8] = &[0x80]; // truncated varint
        assert!(decode_varint_column(&mut buf, 1).is_err());
        let mut buf: &[u8] = &[];
        assert!(decode_delta_column(&mut buf, 1).is_err());
        let mut buf: &[u8] = &[2, 9]; // dict says 2 entries, only 1 present
        assert!(decode_dict_column(&mut buf, 1).is_err());
        let mut buf: &[u8] = &[2, 9, 8, 5]; // index 5 out of range
        assert!(decode_dict_column(&mut buf, 1).is_err());
        let mut buf: &[u8] = &[0]; // empty dict but a row to decode
        assert!(decode_dict_column(&mut buf, 1).is_err());
    }
}
