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
//!    The time column decodes only on the time pages the window meets
//!    (below); the other varint columns decode whole, with the batched
//!    loops in [`crate::codec`]; the op column is range-checked once and
//!    read through its dictionary table. The other predicates are
//!    evaluated only on the rows of the pages decoded; every other row is
//!    unselected.
//! 2. **Materialize phase** — one row-wise loop up to the last selected
//!    row. Every column the predicate phase did not decode is read
//!    through a cursor, and all the cursors advance in lockstep, one value
//!    per row: each column's varint chain is serial, but the chains of
//!    different columns overlap. Predicate columns are read by index, and
//!    dictionary columns through their checked 256-entry tables. A
//!    selected row's event is built as soon as its values are read; an
//!    unselected row only advances the cursors.
//!
//! A query with no predicates takes the same loop with an all-ones
//! selection and every column on a cursor, so the full decode is the
//! identity case of the scan, not a separate code path.
//!
//! # Time pages
//!
//! A segment's time page index (one [`TimePage`] per [`PAGE_ROWS`] rows:
//! where the page starts in the time column, the time before it, and its
//! bounds) lets a time window decode each run of consecutive pages it
//! meets in one batched decode from the run's first page, and skip the
//! rest. [`SegmentBuilder::seal`](crate::SegmentBuilder::seal) builds the
//! index while it encodes; [`index_time_column`] builds it from the bytes
//! for [`Archive::from_bytes`](crate::Archive::from_bytes), and only for
//! a segment whose checksum verifies and whose whole time column decodes
//! with nothing after it. [`SealedSegment::from_parts`] builds none: a
//! failover read wraps every segment through it on every pass, and must
//! not pay a decode. A segment with no index, or a query with no window,
//! is the one-page case of the same loop: one page of every row from the
//! start of the column, whose bounds meet any window — so its results,
//! its errors and its whole-column time decode are unchanged. The
//! checksum is verified on every scan either way, which pins the bytes an
//! index was built from; `values_decoded` charges only the time values
//! actually decoded.
//!
//! [`SealedSegment::from_parts`]: crate::SealedSegment::from_parts
//!
//! Partial decode changes *when* corruption is observed, not whether the
//! structure is validated: every scanned segment still has its row count
//! and all ten column frames checked ([`SegmentColumns::parse`]), but a
//! corrupt cell in a row no selected query ever materializes is not an
//! error — exactly as a pruned segment's cells never were. A full decode
//! (the last row selected) also requires every column to end exactly
//! where its last value does.

use std::ops::Range;

use bytes::Buf;
use charisma_trace::OrderedEvent;

use crate::codec::{
    decode_delta_run_into, decode_varint_column_into, next_varint, unzigzag, DictRun,
};
use crate::query::Query;
use crate::segment::{event_from_row, Row, TimePage, COLUMN_COUNT, PAGE_ROWS};
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

const TRAILING: StoreError = StoreError::Corrupt("trailing bytes in column");

/// The pages a scan walks in a segment with no time page index: one page
/// of every row, from the start of the time column, whose bounds meet any
/// window.
const WHOLE_SEGMENT: [TimePage; 1] = [TimePage {
    offset: 0,
    base: 0,
    min: 0,
    max: u64::MAX,
}];

/// The rows of page `p` of `pages` in a segment of `rows` rows: from
/// `p * PAGE_ROWS` up to the next page, or to the end of the segment for
/// the last page.
fn page_rows(pages: &[TimePage], p: usize, rows: usize) -> Range<usize> {
    let start = (p * PAGE_ROWS).min(rows);
    let end = if p + 1 == pages.len() {
        rows
    } else {
        (start + PAGE_ROWS).min(rows)
    };
    start..end
}

/// The pages a scan under the time window `time` walks, and the window
/// it tests them against: the segment's index under a window, else the
/// whole segment as one page under any window.
fn walked(pages: &[TimePage], time: Option<(u64, u64)>) -> (&[TimePage], (u64, u64)) {
    match time {
        Some(window) if !pages.is_empty() => (pages, window),
        _ => (&WHOLE_SEGMENT, time.unwrap_or((0, u64::MAX))),
    }
}

/// Rows of a segment of `rows` rows with the time page index `pages` (or
/// none, when empty) that a scan under the time window `time` can select:
/// those on the pages it walks.
pub(crate) fn candidate_rows(pages: &[TimePage], time: Option<(u64, u64)>, rows: usize) -> usize {
    let (pages, window) = walked(pages, time);
    page_runs(pages, window, rows)
        .map(|(_, run)| run.len())
        .sum()
}

/// The maximal runs of consecutive `pages` that meet `window`, in order:
/// each run's first page (where its decode starts) and its rows.
fn page_runs(
    pages: &[TimePage],
    window: (u64, u64),
    rows: usize,
) -> impl Iterator<Item = (&TimePage, Range<usize>)> {
    let mut p = 0;
    std::iter::from_fn(move || {
        p += pages[p..].iter().position(|page| page.meets(window))?;
        let first = p;
        p += pages[p..]
            .iter()
            .position(|page| !page.meets(window))
            .unwrap_or(pages.len() - p);
        let start = page_rows(pages, first, rows).start;
        Some((&pages[first], start..page_rows(pages, p - 1, rows).end))
    })
}

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

    /// Decode a whole varint u64 column, which must end exactly at its
    /// last value.
    fn all_u64s(&self, idx: usize) -> Result<Vec<u64>, StoreError> {
        let mut col = self.cols[idx];
        let mut values = Vec::new();
        decode_varint_column_into(&mut col, self.rows, &mut values)?;
        if !col.is_empty() {
            return Err(TRAILING);
        }
        Ok(values)
    }

    /// Decode the time column on the `pages` that meet `window`, one
    /// decode per run of consecutive pages, indexed by row: rows of the
    /// pages skipped read `0`, and the values end with the last page
    /// decoded. Decoding the column's last page requires the column to end
    /// exactly at its last value. Also returns the values decoded.
    fn paged_times(
        &self,
        pages: &[TimePage],
        window: (u64, u64),
    ) -> Result<(Vec<u64>, usize), StoreError> {
        let col = self.cols[COL_TIME];
        let end = page_runs(pages, window, self.rows)
            .last()
            .map_or(0, |(_, rows)| rows.end);
        let mut times = Vec::with_capacity(end);
        let mut decoded = 0;
        for (page, rows) in page_runs(pages, window, self.rows) {
            let mut buf = col
                .get(page.offset..)
                .ok_or(StoreError::Corrupt("time page starts past its column"))?;
            times.resize(rows.start, 0);
            decode_delta_run_into(&mut buf, rows.len(), page.base, &mut times)?;
            if rows.end == self.rows && !buf.is_empty() {
                return Err(TRAILING);
            }
            decoded += rows.len();
        }
        Ok((times, decoded))
    }

    /// The first `upto` rows of a dictionary column, range-checked. When
    /// that is every row, the column must end at the last index.
    fn dict(&self, idx: usize, upto: usize) -> Result<DictRun<'a>, StoreError> {
        let mut col = self.cols[idx];
        let run = DictRun::parse(&mut col, upto)?;
        if upto == self.rows && !col.is_empty() {
            return Err(TRAILING);
        }
        Ok(run)
    }

    /// A cursor at the start of a u64 column — or over nothing when the
    /// predicate phase already `decoded` the column, so that the
    /// end-of-column check holds for it trivially.
    fn cursor(&self, idx: usize, decoded: bool) -> Cursor<'a> {
        Cursor {
            buf: if decoded { &[] } else { self.cols[idx] },
            prev: 0,
        }
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

/// A forward reader over one varint or delta column: one
/// [`next_varint`] step per row.
struct Cursor<'a> {
    buf: &'a [u8],
    /// The previous absolute value of a delta column.
    prev: u64,
}

impl Cursor<'_> {
    #[inline(always)]
    fn varint(&mut self) -> Result<u64, StoreError> {
        next_varint(&mut self.buf).ok_or(StoreError::Corrupt("truncated varint column"))
    }

    #[inline(always)]
    fn delta(&mut self) -> Result<u64, StoreError> {
        let z = next_varint(&mut self.buf).ok_or(StoreError::Corrupt("truncated delta column"))?;
        self.prev = self.prev.wrapping_add(unzigzag(z) as u64);
        Ok(self.prev)
    }
}

/// The value of row `i` of a u64 column: read by index when the predicate
/// phase decoded it, else the cursor's next one.
#[inline(always)]
fn late(
    decoded: &Option<Vec<u64>>,
    i: usize,
    step: impl FnOnce() -> Result<u64, StoreError>,
) -> Result<u64, StoreError> {
    match decoded {
        Some(values) => Ok(values[i]),
        None => step(),
    }
}

/// A per-segment row-selection bitmap: which rows survived the predicate
/// phase. One bit per row, packed into u64 words.
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

    /// Whether row `i` is selected.
    #[inline(always)]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Selected row count.
    pub(crate) fn count(&self) -> usize {
        self.selected
    }

    /// Highest selected row index, if any row is selected.
    pub(crate) fn last(&self) -> Option<usize> {
        self.last
    }
}

/// The effort accounting of one segment scan, which the
/// `store.cols_decoded` / `store.rows_skipped_late` counters aggregate.
pub(crate) struct SegmentScan {
    /// Column *values* decoded (cells). A full-decode scan charges
    /// `10 × rows`; dividing by rows scanned gives the average columns
    /// touched per row.
    pub(crate) values_decoded: u64,
    /// Rows in the segment the materialize phase never built an event
    /// for — the late-materialization win on top of segment pruning.
    pub(crate) rows_skipped: u64,
}

/// Scan one segment blob that has no time page index: [`scan_pages`] as
/// the one-page case.
pub(crate) fn scan_segment(
    buf: &[u8],
    expected_rows: u32,
    query: &Query,
    out: &mut Vec<OrderedEvent>,
) -> Result<SegmentScan, StoreError> {
    scan_pages(buf, expected_rows, &[], query, out)
}

/// Scan one segment blob under `query`, appending the matching events to
/// `out` in row order: predicate-column decode into a [`RowSelection`],
/// then row-wise late materialization of the survivors. `pages` is the
/// segment's time page index, or empty when it has none. On an error,
/// `out` may hold some of the segment's events.
pub(crate) fn scan_pages(
    buf: &[u8],
    expected_rows: u32,
    pages: &[TimePage],
    query: &Query,
    out: &mut Vec<OrderedEvent>,
) -> Result<SegmentScan, StoreError> {
    let cols = SegmentColumns::parse(buf, expected_rows)?;
    let rows = cols.rows();

    // Phase 1: decode exactly the predicate columns and evaluate the
    // selection on the pages the time window meets — every row when the
    // query has no window or the segment no index. Column-wise evaluation
    // is short-circuit in column order: a row rejected by the time window
    // never has its node or op looked at, but the *decode* of the other
    // predicate columns is whole-column (that is what the batched loops
    // want).
    let time_pred = query.time_pred();
    let (pages, window) = walked(pages, time_pred);
    let nodes_pred = query.nodes_pred();
    let ops_pred = query.ops_pred();
    let jobs_pred = query.jobs_pred();
    let files_pred = query.files_pred();
    // Job/file predicates match only rows whose op *names* a job or file,
    // so they pull the op column into the predicate set.
    let need_op = ops_pred.is_some() || jobs_pred.is_some() || files_pred.is_some();

    let (times, times_decoded) = match time_pred {
        Some(_) => {
            let (times, decoded) = cols.paged_times(pages, window)?;
            (Some(times), decoded)
        }
        None => (None, 0),
    };
    let nodes = nodes_pred.map(|_| cols.all_u64s(COL_NODE)).transpose()?;
    let jobs = jobs_pred.map(|_| cols.all_u64s(COL_JOB)).transpose()?;
    let files = files_pred.map(|_| cols.all_u64s(COL_FILE)).transpose()?;
    let ops = need_op.then(|| cols.dict(COL_OP, rows)).transpose()?;
    let whole = [
        nodes.is_some(),
        jobs.is_some(),
        files.is_some(),
        ops.is_some(),
    ]
    .into_iter()
    .filter(|&d| d)
    .count();
    let decoded = whole + usize::from(times.is_some());
    let mut values_decoded = (whole * rows + times_decoded) as u64;

    let mut selection = RowSelection::empty(rows);
    for (_, run) in page_runs(pages, window, rows) {
        for i in run {
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
            let op = ops.as_ref().map(|ops| ops.get(i));
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
    }

    let matched = selection.count();
    let Some(last) = selection.last() else {
        return Ok(SegmentScan {
            values_decoded,
            rows_skipped: rows as u64,
        });
    };

    // Phase 2: late materialization, row by row up to the last selected
    // row — the tail beyond it is never read.
    let upto = last + 1;
    values_decoded += ((COLUMN_COUNT - decoded) * upto) as u64;
    let ops = match ops {
        Some(ops) => ops,
        None => cols.dict(COL_OP, upto)?,
    };
    let modes = cols.dict(COL_MODE, upto)?;
    let flags = cols.dict(COL_FLAGS, upto)?;
    let mut time_col = cols.cursor(COL_TIME, times.is_some());
    let mut node_col = cols.cursor(COL_NODE, nodes.is_some());
    let mut job_col = cols.cursor(COL_JOB, jobs.is_some());
    let mut file_col = cols.cursor(COL_FILE, files.is_some());
    let mut session_col = cols.cursor(COL_SESSION, false);
    let mut offset_col = cols.cursor(COL_OFFSET, false);
    let mut size_col = cols.cursor(COL_SIZE, false);

    out.reserve(matched);
    for i in 0..upto {
        let time = late(&times, i, || time_col.delta())?;
        let node = late(&nodes, i, || node_col.varint())?;
        let job = late(&jobs, i, || job_col.varint())?;
        let file = late(&files, i, || file_col.varint())?;
        let session = session_col.varint()?;
        let offset = offset_col.delta()?;
        let size = size_col.delta()?;
        if !selection.contains(i) {
            continue;
        }
        let row = Row {
            time,
            node: narrow(node, "node id exceeds u16")?,
            op: ops.get(i),
            job: narrow(job, "job id exceeds u32")?,
            file: narrow(file, "file id exceeds u32")?,
            session: narrow(session, "session id exceeds u32")?,
            mode: modes.get(i),
            flags: flags.get(i),
            offset,
            size,
        };
        out.push(event_from_row(&row)?);
    }
    let cursors = [
        time_col,
        node_col,
        job_col,
        file_col,
        session_col,
        offset_col,
        size_col,
    ];
    if upto == rows && cursors.iter().any(|c| !c.buf.is_empty()) {
        return Err(TRAILING);
    }
    Ok(SegmentScan {
        values_decoded,
        rows_skipped: rows as u64 - matched as u64,
    })
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
    let mut events = Vec::new();
    scan_segment(buf, expected_rows, &Query::all(), &mut events)?;
    Ok(events)
}

/// Build the time page index of a segment blob from its bytes: `None`
/// unless its checksum verifies, its frame parses and its whole time
/// column decodes with no trailing bytes.
pub(crate) fn index_time_column(blob: &[u8], expected_rows: u32) -> Option<Vec<TimePage>> {
    let cols = SegmentColumns::parse(blob, expected_rows).ok()?;
    let col = cols.cols[COL_TIME];
    let mut buf = col;
    let mut pages = Vec::with_capacity(cols.rows.div_ceil(PAGE_ROWS));
    let mut values = Vec::with_capacity(PAGE_ROWS);
    let mut prev = 0;
    for start in (0..cols.rows).step_by(PAGE_ROWS) {
        let offset = col.len() - buf.len();
        values.clear();
        decode_delta_run_into(
            &mut buf,
            PAGE_ROWS.min(cols.rows - start),
            prev,
            &mut values,
        )
        .ok()?;
        pages.push(TimePage {
            offset,
            base: prev,
            min: values.iter().copied().min()?,
            max: values.iter().copied().max()?,
        });
        prev = *values.last()?;
    }
    buf.is_empty().then_some(pages)
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
            b.push(e).unwrap();
        }
        b.seal()
    }

    /// The events and the accounting of one scan of `seg` under `q`.
    fn scan(seg: &crate::SealedSegment, q: &Query) -> (Vec<OrderedEvent>, SegmentScan) {
        let mut events = Vec::new();
        let pages = seg.time_pages().unwrap_or_default();
        let scan = scan_pages(seg.bytes(), seg.rows(), pages, q, &mut events).expect("scans");
        (events, scan)
    }

    #[test]
    fn selection_bitmap_marks_exactly_the_selected_rows() {
        let mut sel = RowSelection::empty(300);
        assert_eq!(sel.count(), 0);
        assert_eq!(sel.last(), None);
        for i in [0usize, 63, 64, 200, 299] {
            sel.select(i);
        }
        assert_eq!(sel.count(), 5);
        assert_eq!(sel.last(), Some(299));
        let marked: Vec<usize> = (0..300).filter(|&i| sel.contains(i)).collect();
        assert_eq!(marked, vec![0, 63, 64, 200, 299]);
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
            let (got, scan) = scan(&seg, &q);
            let want: Vec<OrderedEvent> = events.iter().filter(|e| q.matches(e)).copied().collect();
            assert_eq!(got, want, "query {q:?}");
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
        let (_, full) = scan(&seg, &Query::all());
        assert_eq!(full.values_decoded, 10 * 500);
        assert_eq!(full.rows_skipped, 0);

        // A time window covering the first 31 rows: the one time page they
        // lie on at 128 values + 9 late columns at 31 values each.
        let q = Query::all().time_window(SimTime::from_micros(0), SimTime::from_micros(90));
        let (got, narrow) = scan(&seg, &q);
        assert_eq!(got.len(), 31);
        assert_eq!(narrow.values_decoded, 128 + 9 * 31);
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
        let (got, paged) = scan(&seg, &q);
        assert!(got.is_empty());
        assert_eq!(paged.values_decoded, 0, "no time page meets the window");
        assert_eq!(paged.rows_skipped, 128);
        // Without an index the whole time column is the one page.
        let mut out = Vec::new();
        let whole = scan_segment(seg.bytes(), seg.rows(), &q, &mut out).expect("scans");
        assert!(out.is_empty());
        assert_eq!(whole.values_decoded, 128, "only the time column");
        assert_eq!(whole.rows_skipped, 128);
    }

    /// `seg` re-framed with `extra` appended to column `col`, and
    /// re-sealed.
    fn with_extra_bytes(seg: &crate::SealedSegment, col: usize, extra: &[u8]) -> Vec<u8> {
        use bytes::BufMut;
        let blob = seg.bytes();
        let mut buf = &blob[..blob.len() - crate::integrity::CHECKSUM_LEN];
        let rows = buf.try_get_varint_u64().expect("row count");
        let mut out = Vec::new();
        out.put_varint_u64(rows);
        for i in 0..COLUMN_COUNT {
            let mut bytes = take_column(&mut buf).expect("column").to_vec();
            if i == col {
                bytes.extend_from_slice(extra);
            }
            out.put_varint_u64(bytes.len() as u64);
            out.put_slice(&bytes);
        }
        let sum = crate::integrity::checksum(&out);
        out.put_u64_le(sum);
        out
    }

    #[test]
    fn an_extra_value_fails_a_full_decode_but_not_a_scan_that_stops_short() {
        let events = stream(64);
        let seg = sealed(&events);
        // Rows 0..10: the time window ends well before any column's tail.
        let q = Query::all().time_window(SimTime::ZERO, SimTime::from_micros(27));
        for col in 0..COLUMN_COUNT {
            // One more varint (or dictionary index) than the segment has
            // rows.
            let blob = with_extra_bytes(&seg, col, &[0]);
            let mut out = Vec::new();
            let err = scan_segment(&blob, seg.rows(), &Query::all(), &mut out)
                .err()
                .unwrap_or_else(|| panic!("column {col}: full decode accepted a trailing value"));
            assert!(
                matches!(err, StoreError::Corrupt("trailing bytes in column")),
                "column {col}: {err:?}"
            );
            let mut out = Vec::new();
            let selective = scan_segment(&blob, seg.rows(), &q, &mut out);
            if col == COL_TIME {
                // A predicate column of `q`, so decoded whole.
                assert!(matches!(
                    selective,
                    Err(StoreError::Corrupt("trailing bytes in column"))
                ));
            } else {
                selective.unwrap_or_else(|e| panic!("column {col}: {e:?}"));
                assert_eq!(out, events[..10], "column {col}");
            }
        }
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
        let mut out = Vec::new();
        assert!(scan_segment(seg.bytes(), seg.rows() + 1, &q, &mut out).is_err());
        for cut in 0..seg.bytes().len() {
            assert!(
                scan_segment(&seg.bytes()[..cut], seg.rows(), &q, &mut out).is_err(),
                "cut {cut}"
            );
        }
    }
}
