//! Offline stand-in for the `bytes` crate.
//!
//! Provides exactly the [`Buf`] / [`BufMut`] surface the trace codec uses:
//! little-endian fixed-width reads on `&[u8]` and writes on `Vec<u8>`.
//! Semantics match upstream: reads past the end panic, so callers must check
//! [`Buf::remaining`] first (the codec does).
//!
//! **Charisma extensions** (not in upstream `bytes`): the columnar store
//! codec (`charisma-store`) needs LEB128 varints and *checked* reads that
//! report truncation instead of panicking, so this shim additionally
//! carries [`BufMut::put_varint_u64`] and the `try_get_*` family on
//! [`Buf`]. Per the ROADMAP, shims are extended in place rather than
//! pulling in registry crates. Every store column, zone map and footer
//! goes through the varint writer, so it builds each varint in a word and
//! appends it in one fixed-size copy rather than a byte at a time.
//!
//! The shim also provides [`Bytes`]: an immutable, cheaply-cloneable byte
//! buffer with shared (`Arc`-backed) ownership and zero-copy
//! [`Bytes::slice`], matching the upstream type's core semantics. The
//! store's sealed-segment handles are built on it: any number of readers
//! can hold views into one archive allocation without copying a byte.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
///
/// Cloning is O(1) (an `Arc` bump); [`Bytes::slice`] produces a new handle
/// onto the same allocation. Dereferences to `&[u8]`, so anything that
/// reads slices — including [`Buf`] on `&[u8]` — works on a view of it.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty buffer (no allocation is shared).
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Copy `data` into a fresh shared buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Bytes in this view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A new handle onto the sub-range `range` of this view, sharing the
    /// same allocation. Panics if the range is out of bounds or inverted,
    /// matching upstream and slice-indexing semantics.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "slice {begin}..{end} out of bounds of {len}-byte Bytes"
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + begin,
            end: self.start + end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = v.into();
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

impl PartialEq for Bytes {
    /// O(1) for two views of the same range of one allocation (clones of
    /// one handle); otherwise a content comparison.
    fn eq(&self, other: &Self) -> bool {
        let same_view = Arc::ptr_eq(&self.data, &other.data)
            && self.start == other.start
            && self.end == other.end;
        same_view || self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

/// Read cursor over a byte source.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// Consume and discard `n` bytes.
    fn advance(&mut self, n: usize);

    /// Copy exactly `dst.len()` bytes out, advancing the cursor.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Checked [`Buf::copy_to_slice`]: `None` (consuming nothing) if fewer
    /// than `dst.len()` bytes remain.
    fn try_copy_to_slice(&mut self, dst: &mut [u8]) -> Option<()> {
        if self.remaining() < dst.len() {
            return None;
        }
        self.copy_to_slice(dst);
        Some(())
    }

    /// Checked [`Buf::get_u8`]: `None` on an empty buffer.
    fn try_get_u8(&mut self) -> Option<u8> {
        let mut b = [0u8; 1];
        self.try_copy_to_slice(&mut b)?;
        Some(b[0])
    }

    /// Checked [`Buf::get_u16_le`].
    fn try_get_u16_le(&mut self) -> Option<u16> {
        let mut b = [0u8; 2];
        self.try_copy_to_slice(&mut b)?;
        Some(u16::from_le_bytes(b))
    }

    /// Checked [`Buf::get_u32_le`].
    fn try_get_u32_le(&mut self) -> Option<u32> {
        let mut b = [0u8; 4];
        self.try_copy_to_slice(&mut b)?;
        Some(u32::from_le_bytes(b))
    }

    /// Checked [`Buf::get_u64_le`].
    fn try_get_u64_le(&mut self) -> Option<u64> {
        let mut b = [0u8; 8];
        self.try_copy_to_slice(&mut b)?;
        Some(u64::from_le_bytes(b))
    }

    /// Decode one LEB128 varint (the inverse of
    /// [`BufMut::put_varint_u64`]).
    ///
    /// `None` on truncation (the buffer ended mid-varint) or overflow (an
    /// encoding longer than 10 bytes / spilling past 64 bits). On `None`
    /// the cursor is left wherever the scan stopped — callers treating the
    /// buffer as corrupt should discard it.
    fn try_get_varint_u64(&mut self) -> Option<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.try_get_u8()?;
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
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        *self = &self[n..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "read past end of buffer");
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }
}

/// Append-only byte sink.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append `v` as an LEB128 varint: seven value bits per byte, low
    /// bits first, high bit of each byte marking continuation. At most 10
    /// bytes; values below 128 take one.
    fn put_varint_u64(&mut self, v: u64);
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    /// Appends all ten bytes `varint_bytes` builds in one fixed-size
    /// copy, then cuts the vector back to the varint's length: no
    /// per-byte appends, and no variable-length copy (which costs a
    /// `memcpy` call per varint).
    #[inline]
    fn put_varint_u64(&mut self, v: u64) {
        let (bytes, len) = varint_bytes(v);
        let end = self.len() + len;
        self.extend_from_slice(&bytes);
        self.truncate(end);
    }
}

/// The LEB128 varint of `v` in the first `len` bytes of a ten-byte
/// buffer, and `len`.
///
/// The varint is built in a word, not a byte at a time: the low 56 bits
/// are spread into eight 7-bit groups, one per byte, in three
/// mask-and-shift steps (the inverse of the store's windowed decoder),
/// and the continuation bits of all but the last byte are set with one
/// mask. Bits 56 and up, present only in values of 2^56 and more, fill
/// the ninth and tenth bytes.
#[inline]
fn varint_bytes(v: u64) -> ([u8; 10], usize) {
    // ceil(bits / 7) for 1..=64 significant bits; zero takes one byte.
    let bits = u64::BITS - (v | 1).leading_zeros();
    let len = ((bits * 9 + 64) / 64) as usize;
    // Every byte but the varint's last carries a continuation bit.
    let continued = (len as u32 - 1).min(8);
    let more = VARINT_CONTINUATION
        .checked_shr(64 - 8 * continued)
        .unwrap_or(0);
    let high = v >> 56;
    let mut buf = [0u8; 10];
    buf[..8].copy_from_slice(&(spread_varint_groups(v) | more).to_le_bytes());
    buf[8] = (high as u8 & 0x7f) | if len == 10 { 0x80 } else { 0 };
    buf[9] = (high >> 7) as u8;
    (buf, len)
}

/// The continuation bit of each of a word's eight bytes.
const VARINT_CONTINUATION: u64 = 0x8080_8080_8080_8080;

/// Spread the low 56 bits of `v` into eight 7-bit groups, group `i` in
/// the low seven bits of byte `i`: halves of 28 bits, then quarters of
/// 14, then the 7-bit groups. Bits 56 and up are dropped.
#[inline]
fn spread_varint_groups(v: u64) -> u64 {
    let v = (v & 0x0000_0000_0fff_ffff) | ((v & 0x00ff_ffff_f000_0000) << 4);
    let v = (v & 0x0000_3fff_0000_3fff) | ((v & 0x0fff_c000_0fff_c000) << 2);
    (v & 0x007f_007f_007f_007f) | ((v & 0x3f80_3f80_3f80_3f80) << 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_clone_and_slice_share_one_allocation() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5, 6]);
        let c = b.clone();
        assert_eq!(b, c);
        assert!(std::ptr::eq(b.as_ref().as_ptr(), c.as_ref().as_ptr()));
        let mid = b.slice(2..5);
        assert_eq!(&mid[..], &[3, 4, 5]);
        assert!(std::ptr::eq(mid.as_ref().as_ptr(), &b.as_ref()[2]));
        let tail = mid.slice(1..);
        assert_eq!(&tail[..], &[4, 5]);
        let empty = b.slice(6..6);
        assert!(empty.is_empty());
        assert_eq!(Bytes::new().len(), 0);
    }

    #[test]
    fn bytes_equality_compares_contents_across_allocations() {
        let a = Bytes::from(vec![9u8, 8, 7]);
        let b = Bytes::copy_from_slice(&[9, 8, 7]);
        assert!(!std::ptr::eq(a.as_ref().as_ptr(), b.as_ref().as_ptr()));
        assert_eq!(a, b, "equal contents, distinct allocations");
        assert_eq!(a, a.clone(), "a shared clone");
        let c = Bytes::from(vec![1u8, 2, 1, 3]);
        assert_ne!(
            c.slice(0..2),
            c.slice(2..4),
            "one allocation, ranges differ"
        );
        assert_eq!(
            c.slice(0..1),
            c.slice(2..3),
            "one allocation, equal contents"
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bytes_slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let _ = b.slice(1..5);
    }

    #[test]
    fn bytes_reads_through_buf() {
        let b = Bytes::from(vec![7u8, 0, 0, 0]);
        let mut view: &[u8] = &b;
        assert_eq!(view.try_get_u32_le(), Some(7));
    }

    #[test]
    fn round_trip_all_widths() {
        let mut out: Vec<u8> = Vec::new();
        out.put_u8(0xAB);
        out.put_u16_le(0xBEEF);
        out.put_u32_le(0xDEAD_BEEF);
        out.put_u64_le(0x0123_4567_89AB_CDEF);
        out.put_slice(b"xyz");

        let mut buf = out.as_slice();
        assert_eq!(buf.remaining(), 1 + 2 + 4 + 8 + 3);
        assert_eq!(buf.get_u8(), 0xAB);
        assert_eq!(buf.get_u16_le(), 0xBEEF);
        assert_eq!(buf.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(buf.get_u64_le(), 0x0123_4567_89AB_CDEF);
        let mut tail = [0u8; 3];
        buf.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"xyz");
        assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn advance_skips() {
        let data = [1u8, 2, 3, 4];
        let mut buf = &data[..];
        buf.advance(2);
        assert_eq!(buf.get_u8(), 3);
    }

    #[test]
    #[should_panic(expected = "read past end")]
    fn overread_panics() {
        let data = [1u8];
        let mut buf = &data[..];
        let _ = buf.get_u32_le();
    }

    #[test]
    fn checked_reads_report_truncation_without_consuming() {
        let data = [7u8, 8];
        let mut buf = &data[..];
        assert_eq!(buf.try_get_u32_le(), None);
        assert_eq!(buf.remaining(), 2, "failed checked read consumes nothing");
        assert_eq!(buf.try_get_u16_le(), Some(0x0807));
        assert_eq!(buf.try_get_u8(), None);
        assert_eq!(buf.try_get_u64_le(), None);
    }

    #[test]
    fn varint_round_trips_boundary_values() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut out: Vec<u8> = Vec::new();
        for &v in &values {
            out.put_varint_u64(v);
        }
        let mut buf = out.as_slice();
        for &v in &values {
            assert_eq!(buf.try_get_varint_u64(), Some(v));
        }
        assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn varint_sizes_are_minimal() {
        for (v, len) in [(0u64, 1usize), (127, 1), (128, 2), (u64::MAX, 10)] {
            let mut out: Vec<u8> = Vec::new();
            out.put_varint_u64(v);
            assert_eq!(out.len(), len, "value {v}");
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        // Truncated: continuation bit set, then the buffer ends.
        let mut buf: &[u8] = &[0x80];
        assert_eq!(buf.try_get_varint_u64(), None);
        // Overflow: 11 continuation bytes spill past 64 bits.
        let long = [0xff; 11];
        let mut buf = &long[..];
        assert_eq!(buf.try_get_varint_u64(), None);
        // Overflow in the 10th byte's high bits.
        let spill = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut buf = &spill[..];
        assert_eq!(buf.try_get_varint_u64(), None);
    }
}
