//! Predicate-first segment scan: decode what the query asks about,
//! materialize only what survives.
//!
//! The original read path decoded all ten columns of every admitted
//! segment and then filtered row-by-row — a two-predicate query paid the
//! full ten-column decode for every row it was about to throw away. This
//! module restructures the per-segment scan into two phases over the same
//! length-prefixed column layout (the *format* is untouched; canonical
//! bytes stay canonical):
//!
//! 1. **Predicate phase** — decode only the columns the [`Query`]'s
//!    predicates reference (time, node, op, job, file; the op column also
//!    rides along with job/file predicates because those predicates are
//!    op-conditional) and evaluate them into a [`RowSelection`] bitmap.
//! 2. **Materialize phase** — decode the remaining columns just far
//!    enough to cover the last selected row, then build events for the
//!    selected rows alone, skipping unselected runs a 64-row word at a
//!    time via the bitmap.
//!
//! Both phases run the batched decoders in [`crate::codec`]
//! (u64-at-a-time varint probing, chunked delta prefix sums). A query
//! with no predicates takes the same machinery with an all-ones
//! selection, so the full decode is the identity case of the scan, not a
//! separate code path.
//!
//! Partial decode changes *when* corruption is observed, not whether the
//! structure is validated: every scanned segment still has its row count
//! and all ten column frames checked ([`SegmentColumns::parse`]), but a
//! corrupt cell in a row no selected query ever materializes is not an
//! error — exactly as a pruned segment's cells never were.

use bytes::Buf;
use charisma_trace::OrderedEvent;

use crate::codec::{decode_delta_column_into, decode_dict_column, decode_varint_column_into};
use crate::query::Query;
use crate::segment::{event_from_row, Row, COLUMN_COUNT};
use crate::StoreError;

/// Fixed column order within a segment blob (see the schema table in
/// [`crate::segment`]).
const COL_TIME: usize = 0;
const COL_NODE: usize = 1;
const COL_OP: usize = 2;
const COL_JOB: usize = 3;
const COL_FILE: usize = 4;
const COL_SESSION: usize = 5;
const COL_MODE: usize = 6;
const COL_FLAGS: usize = 7;
const COL_OFFSET: usize = 8;
const COL_SIZE: usize = 9;

/// A parsed segment frame: the row count plus one borrowed byte slice per
/// column. Parsing validates the segment's *structure* — row count
/// agreement with the index, ten well-formed length prefixes, no trailing
/// bytes — without decoding a single value, which is what makes partial
/// decode safe to offer.
pub(crate) struct SegmentColumns<'a> {
    cols: [&'a [u8]; COLUMN_COUNT],
    rows: usize,
}

impl<'a> SegmentColumns<'a> {
    pub(crate) fn parse(blob: &'a [u8], expected_rows: u32) -> Result<Self, StoreError> {
        // The trailing integrity checksum is verified before any frame is
        // trusted: a flipped byte anywhere in the blob surfaces as
        // `ChecksumMismatch`, never as a misdecoded value. Verification
        // reads bytes, not column values, so it is not charged to
        // `values_decoded`.
        let mut buf = crate::integrity::verified_payload(blob)?;
        let n = buf
            .try_get_varint_u64()
            .ok_or(StoreError::Corrupt("truncated row count"))?;
        if n != u64::from(expected_rows) {
            return Err(StoreError::Corrupt(
                "segment row count disagrees with index",
            ));
        }
        let mut cols = [&[] as &[u8]; COLUMN_COUNT];
        for col in &mut cols {
            *col = take_column(&mut buf)?;
        }
        if !buf.is_empty() {
            return Err(StoreError::Corrupt("trailing bytes in segment"));
        }
        Ok(SegmentColumns {
            cols,
            rows: expected_rows as usize,
        })
    }

    /// Rows in the segment.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Decode the first `upto` values of a varint or delta u64 column.
    /// A full decode (`upto == rows`) also enforces the per-column
    /// trailing-bytes check; a partial decode cannot (the tail is
    /// legitimately unread).
    fn u64s(&self, idx: usize, delta: bool, upto: usize) -> Result<Vec<u64>, StoreError> {
        let mut col = self.cols[idx];
        let mut values = Vec::new();
        if delta {
            decode_delta_column_into(&mut col, upto, &mut values)?;
        } else {
            decode_varint_column_into(&mut col, upto, &mut values)?;
        }
        if upto == self.rows && !col.is_empty() {
            return Err(StoreError::Corrupt("trailing bytes in column"));
        }
        Ok(values)
    }

    /// Decode the first `upto` values of a dictionary column. Constant
    /// columns (one-entry dictionary, indices elided) materialize `upto`
    /// copies without reading any index bytes at all.
    fn u8s(&self, idx: usize, upto: usize) -> Result<Vec<u8>, StoreError> {
        let mut col = self.cols[idx];
        let values = decode_dict_column(&mut col, upto)?;
        if upto == self.rows && !col.is_empty() {
            return Err(StoreError::Corrupt("trailing bytes in column"));
        }
        Ok(values)
    }
}

/// Borrow one length-prefixed column out of `buf`.
fn take_column<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], StoreError> {
    let len = buf
        .try_get_varint_u64()
        .ok_or(StoreError::Corrupt("truncated column length"))?;
    let len = usize::try_from(len).map_err(|_| StoreError::Corrupt("column length overflow"))?;
    if buf.remaining() < len {
        return Err(StoreError::Corrupt("column extends past segment"));
    }
    let (col, rest) = buf.split_at(len);
    *buf = rest;
    Ok(col)
}

/// A per-segment row-selection bitmap: which rows survived the predicate
/// phase. One bit per row, packed into u64 words so the materialize phase
/// can skip 64 unselected rows with a single zero-word test.
pub(crate) struct RowSelection {
    words: Vec<u64>,
    selected: usize,
    last: Option<usize>,
}

impl RowSelection {
    pub(crate) fn empty(rows: usize) -> Self {
        RowSelection {
            words: vec![0; rows.div_ceil(64)],
            selected: 0,
            last: None,
        }
    }

    /// Mark row `i` selected. Rows must be selected in ascending order
    /// (the predicate phase walks rows forward), which keeps `last` a
    /// plain assignment.
    pub(crate) fn select(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
        self.selected += 1;
        self.last = Some(i);
    }

    /// Selected row count.
    pub(crate) fn count(&self) -> usize {
        self.selected
    }

    /// Highest selected row index, if any row is selected.
    pub(crate) fn last(&self) -> Option<usize> {
        self.last
    }

    /// Iterate the selected row indices in ascending order, skipping
    /// all-zero words wholesale.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != 0)
            .flat_map(|(wi, &w)| {
                let mut bits = w;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + bit)
                })
            })
    }
}

/// What one segment scan produced: the matching events plus the effort
/// accounting the `store.cols_decoded` / `store.rows_skipped_late`
/// counters aggregate.
pub(crate) struct SegmentScan {
    /// Matching events, in row order.
    pub(crate) events: Vec<OrderedEvent>,
    /// Column *values* decoded (cells). A full-decode scan charges
    /// `10 × rows`; dividing by rows scanned gives the average columns
    /// touched per row.
    pub(crate) values_decoded: u64,
    /// Rows in the segment the materialize phase never built an event
    /// for — the late-materialization win on top of segment pruning.
    pub(crate) rows_skipped: u64,
}

/// Scan one segment blob under `query`: predicate-column decode into a
/// [`RowSelection`], then late materialization of the survivors.
pub(crate) fn scan_segment(
    buf: &[u8],
    expected_rows: u32,
    query: &Query,
) -> Result<SegmentScan, StoreError> {
    let cols = SegmentColumns::parse(buf, expected_rows)?;
    let rows = cols.rows();

    // Phase 1: decode exactly the predicate columns and evaluate the
    // selection. Column-wise evaluation is short-circuit in column order:
    // a row rejected by the time window never has its node or op looked
    // at, but the *decode* is whole-column (that is what the batched
    // loops want).
    let time_pred = query.time_pred();
    let nodes_pred = query.nodes_pred();
    let ops_pred = query.ops_pred();
    let jobs_pred = query.jobs_pred();
    let files_pred = query.files_pred();
    // Job/file predicates match only rows whose op *names* a job or file,
    // so they pull the op column into the predicate set.
    let need_op = ops_pred.is_some() || jobs_pred.is_some() || files_pred.is_some();

    let mut values_decoded = 0u64;
    let mut decode_full_u64 = |idx: usize, delta: bool| -> Result<Vec<u64>, StoreError> {
        values_decoded += rows as u64;
        cols.u64s(idx, delta, rows)
    };

    let mut times = time_pred
        .map(|_| decode_full_u64(COL_TIME, true))
        .transpose()?;
    let mut nodes = nodes_pred
        .map(|_| decode_full_u64(COL_NODE, false))
        .transpose()?;
    let mut jobs = jobs_pred
        .map(|_| decode_full_u64(COL_JOB, false))
        .transpose()?;
    let mut files = files_pred
        .map(|_| decode_full_u64(COL_FILE, false))
        .transpose()?;
    let mut ops = if need_op {
        values_decoded += rows as u64;
        Some(cols.u8s(COL_OP, rows)?)
    } else {
        None
    };

    let mut selection = RowSelection::empty(rows);
    for i in 0..rows {
        if let (Some((from, to)), Some(times)) = (time_pred, &times) {
            let t = times[i];
            if t < from || t > to {
                continue;
            }
        }
        if let (Some(want), Some(nodes)) = (nodes_pred, &nodes) {
            if !want.iter().any(|&n| u64::from(n) == nodes[i]) {
                continue;
            }
        }
        let op = ops.as_ref().map(|ops| ops[i]);
        if let (Some(set), Some(op)) = (ops_pred, op) {
            // An out-of-range tag cannot be in any op set; it only
            // becomes a decode error if the row is otherwise selected
            // and materialized.
            if !(1..=7).contains(&op) || !set.intersects_bits(1 << (op - 1)) {
                continue;
            }
        }
        if let (Some(want), Some(jobs)) = (jobs_pred, &jobs) {
            // Rows name a job only for JobStart/JobEnd/Open/Delete.
            let names_job = matches!(op, Some(1 | 2 | 3 | 7));
            if !names_job || !want.iter().any(|&j| u64::from(j) == jobs[i]) {
                continue;
            }
        }
        if let (Some(want), Some(files)) = (files_pred, &files) {
            // Rows name a file only for Open/Delete.
            let names_file = matches!(op, Some(3 | 7));
            if !names_file || !want.iter().any(|&f| u64::from(f) == files[i]) {
                continue;
            }
        }
        selection.select(i);
    }

    let matched = selection.count();
    if matched == 0 {
        return Ok(SegmentScan {
            events: Vec::new(),
            values_decoded,
            rows_skipped: rows as u64,
        });
    }

    // Phase 2: late materialization. Decode every column the predicate
    // phase did not touch, but only up to the last selected row — the
    // tail beyond it is never read.
    let upto = selection.last().map_or(0, |i| i + 1);
    let mut materialize_u64 =
        |slot: &mut Option<Vec<u64>>, idx: usize, delta: bool| -> Result<(), StoreError> {
            if slot.is_none() {
                values_decoded += upto as u64;
                *slot = Some(cols.u64s(idx, delta, upto)?);
            }
            Ok(())
        };
    materialize_u64(&mut times, COL_TIME, true)?;
    materialize_u64(&mut nodes, COL_NODE, false)?;
    materialize_u64(&mut jobs, COL_JOB, false)?;
    materialize_u64(&mut files, COL_FILE, false)?;
    let mut sessions = None;
    materialize_u64(&mut sessions, COL_SESSION, false)?;
    let mut offsets = None;
    materialize_u64(&mut offsets, COL_OFFSET, true)?;
    let mut sizes = None;
    materialize_u64(&mut sizes, COL_SIZE, true)?;
    if ops.is_none() {
        values_decoded += upto as u64;
        ops = Some(cols.u8s(COL_OP, upto)?);
    }
    values_decoded += 2 * upto as u64;
    let modes = cols.u8s(COL_MODE, upto)?;
    let flags = cols.u8s(COL_FLAGS, upto)?;

    let (times, nodes, ops) = (unwrapped(&times), unwrapped(&nodes), unwrapped(&ops));
    let (jobs, files) = (unwrapped(&jobs), unwrapped(&files));
    let (sessions, offsets, sizes) = (unwrapped(&sessions), unwrapped(&offsets), unwrapped(&sizes));

    let mut events = Vec::with_capacity(matched);
    for i in selection.iter() {
        let row = Row {
            time: times[i],
            node: narrow(nodes[i], "node id exceeds u16")?,
            op: ops[i],
            job: narrow(jobs[i], "job id exceeds u32")?,
            file: narrow(files[i], "file id exceeds u32")?,
            session: narrow(sessions[i], "session id exceeds u32")?,
            mode: modes[i],
            flags: flags[i],
            offset: offsets[i],
            size: sizes[i],
        };
        events.push(event_from_row(&row)?);
    }
    Ok(SegmentScan {
        events,
        values_decoded,
        rows_skipped: rows as u64 - matched as u64,
    })
}

/// Every column is `Some` by the end of the materialize phase; keep the
/// accessor panic-free anyway (CH003, `clippy::unwrap_used`) by mapping
/// an impossible `None` onto an empty slice, which would fail the indexed
/// reads as a bug, not a panic in release builds of callers.
fn unwrapped<T>(slot: &Option<Vec<T>>) -> &[T] {
    slot.as_deref().unwrap_or(&[])
}

fn narrow<T: TryFrom<u64>>(v: u64, what: &'static str) -> Result<T, StoreError> {
    T::try_from(v).map_err(|_| StoreError::Corrupt(what))
}

/// Decode one segment blob back into *all* its records, in row order —
/// the identity-query case of [`scan_segment`].
pub(crate) fn decode_segment(
    buf: &[u8],
    expected_rows: u32,
) -> Result<Vec<OrderedEvent>, StoreError> {
    Ok(scan_segment(buf, expected_rows, &Query::all())?.events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{OpClass, OpSet};
    use crate::segment::SegmentBuilder;
    use charisma_ipsc::SimTime;
    use charisma_trace::record::{AccessKind, EventBody};

    fn stream(n: u64) -> Vec<OrderedEvent> {
        (0..n)
            .map(|i| OrderedEvent {
                time: SimTime::from_micros(i * 3),
                node: (i % 5) as u16,
                body: match i % 3 {
                    0 => EventBody::Open {
                        job: (i / 10) as u32,
                        file: (i % 40) as u32,
                        session: i as u32,
                        mode: 1,
                        access: AccessKind::ReadWrite,
                        created: i % 2 == 0,
                    },
                    1 => EventBody::Read {
                        session: i as u32,
                        offset: i * 100,
                        bytes: 256,
                    },
                    _ => EventBody::Write {
                        session: i as u32,
                        offset: i * 100,
                        bytes: 512,
                    },
                },
            })
            .collect()
    }

    fn sealed(events: &[OrderedEvent]) -> crate::SealedSegment {
        let mut b = SegmentBuilder::default();
        for e in events {
            b.push(e);
        }
        b.seal()
    }

    #[test]
    fn selection_bitmap_iterates_in_order_and_skips_runs() {
        let mut sel = RowSelection::empty(300);
        assert_eq!(sel.count(), 0);
        assert_eq!(sel.last(), None);
        for i in [0usize, 63, 64, 200, 299] {
            sel.select(i);
        }
        assert_eq!(sel.count(), 5);
        assert_eq!(sel.last(), Some(299));
        assert_eq!(sel.iter().collect::<Vec<_>>(), vec![0, 63, 64, 200, 299]);
    }

    #[test]
    fn predicate_scan_agrees_with_full_decode_and_filter() {
        let events = stream(500);
        let seg = sealed(&events);
        let queries = [
            Query::all(),
            Query::all().time_window(SimTime::from_micros(90), SimTime::from_micros(600)),
            Query::all().node(2),
            Query::all().ops(OpSet::empty().with(OpClass::Open)),
            Query::all().jobs(&[7]),
            Query::all().files(&[13]),
            Query::all()
                .time_window(SimTime::from_micros(0), SimTime::from_micros(900))
                .ops(OpSet::requests()),
            Query::all().jobs(&[]),
        ];
        for q in queries {
            let scan = scan_segment(seg.bytes(), seg.rows(), &q).expect("scans");
            let want: Vec<OrderedEvent> = events.iter().filter(|e| q.matches(e)).copied().collect();
            assert_eq!(scan.events, want, "query {q:?}");
            assert_eq!(
                scan.rows_skipped,
                events.len() as u64 - want.len() as u64,
                "query {q:?}"
            );
        }
    }

    #[test]
    fn full_scan_charges_every_cell_and_pruned_scans_charge_fewer() {
        let events = stream(500);
        let seg = sealed(&events);
        let full = scan_segment(seg.bytes(), seg.rows(), &Query::all()).expect("scans");
        assert_eq!(full.values_decoded, 10 * 500);
        assert_eq!(full.rows_skipped, 0);

        // A time window covering the first 31 rows: 1 predicate column at
        // 500 values + 9 late columns at 31 values each.
        let q = Query::all().time_window(SimTime::from_micros(0), SimTime::from_micros(90));
        let narrow = scan_segment(seg.bytes(), seg.rows(), &q).expect("scans");
        assert_eq!(narrow.events.len(), 31);
        assert_eq!(narrow.values_decoded, 500 + 9 * 31);
        assert_eq!(narrow.rows_skipped, 500 - 31);
        assert!(narrow.values_decoded < full.values_decoded);
    }

    #[test]
    fn empty_selection_skips_materialization_entirely() {
        let events = stream(128);
        let seg = sealed(&events);
        let q = Query::all().time_window(
            SimTime::from_micros(1_000_000),
            SimTime::from_micros(u64::MAX),
        );
        let scan = scan_segment(seg.bytes(), seg.rows(), &q).expect("scans");
        assert!(scan.events.is_empty());
        assert_eq!(scan.values_decoded, 128, "only the time column");
        assert_eq!(scan.rows_skipped, 128);
    }

    #[test]
    fn structural_corruption_is_caught_even_when_pruning_rows() {
        let events = stream(64);
        let seg = sealed(&events);
        let q = Query::all().time_window(
            SimTime::from_micros(1_000_000),
            SimTime::from_micros(u64::MAX),
        );
        // Row-count disagreement and truncation fail even for a query
        // whose selection would be empty.
        assert!(scan_segment(seg.bytes(), seg.rows() + 1, &q).is_err());
        for cut in 0..seg.bytes().len() {
            assert!(
                scan_segment(&seg.bytes()[..cut], seg.rows(), &q).is_err(),
                "cut {cut}"
            );
        }
    }
}
