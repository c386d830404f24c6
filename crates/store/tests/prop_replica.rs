//! Property tests for the self-healing layer: checksummed segments,
//! torn-tail recovery, and replica scrub/repair/failover.
//!
//! Four promises, mirroring the durability story end to end:
//! * **No silent corruption** — any single-byte flip in any replica of a
//!   sealed archive is caught by scrub (FNV-1a's per-step injectivity
//!   makes this a theorem, not a probability), and repair restores the
//!   canonical bytes exactly.
//! * **Repair is byte-exact** — a lost replica is rebuilt from a
//!   surviving copy to the same bytes it held before the loss.
//! * **Torn tails recover the sealed prefix** — truncating an archive at
//!   *every* byte boundary of its final segment (and beyond, into the
//!   footer) recovers exactly the whole segments sealed before the cut.
//! * **Degraded ≡ clean** — while at least one good replica of every
//!   segment is live, a failover reader answers every query with exactly
//!   the bytes and events a clean reader produces.
//! * **Damage is copy-on-write** — replicas share the reader's bytes, yet
//!   damaging one copy never reaches the reader, a sibling copy, or
//!   another set placed from the same reader.

use charisma_ipsc::SimTime;
use charisma_store::{
    write_archive, Archive, ArchiveMeta, Query, ReplicaConfig, ReplicaSet, StoreError,
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
        (0u32..12, 0u32..24).prop_map(|(job, file)| EventBody::Delete { job, file }),
    ]
}

/// Short ordered streams: replica grids are segments × factor, so a few
/// hundred rows across small segments already exercise many slots.
fn arb_stream() -> impl Strategy<Value = Vec<OrderedEvent>> {
    proptest::collection::vec((0u64..100_000, 0u16..8, arb_body()), 1..400).prop_map(|raw| {
        let mut events: Vec<OrderedEvent> = raw
            .into_iter()
            .map(|(t, node, body)| OrderedEvent {
                time: SimTime::from_micros(t),
                node,
                body,
            })
            .collect();
        events.sort_by_key(|e| (e.time, e.node));
        events
    })
}

fn arb_query() -> impl Strategy<Value = Query> {
    (
        proptest::option::of((0u64..100_000, 0u64..100_000)),
        proptest::option::of(proptest::collection::vec(0u32..14, 0..4)),
        proptest::option::of(proptest::collection::vec(0u16..9, 0..3)),
    )
        .prop_map(|(time, jobs, nodes)| {
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
            if let Some(nodes) = nodes {
                q = q.nodes(&nodes);
            }
            q
        })
}

const META: ArchiveMeta = ArchiveMeta {
    seed: 4994,
    scale: 0.05,
};

/// A replica set over the canonical archive of `events`, plus those
/// canonical bytes.
fn place(events: &[OrderedEvent], seed: u64) -> (ReplicaSet, Vec<u8>) {
    let bytes = write_archive(events, META);
    let archive = Archive::from_bytes(bytes.clone()).expect("canonical bytes parse");
    let set = ReplicaSet::place(archive.reader(), ReplicaConfig::default(), seed);
    (set, bytes)
}

/// Multi-segment stream for `rows` rows: `arb_stream` fits one segment,
/// and copy-on-write must hold across segments as well as within one.
fn fixed_stream(rows: u64) -> Vec<OrderedEvent> {
    (0..rows)
        .map(|i| OrderedEvent {
            time: SimTime::from_micros(i * 3),
            node: (i % 8) as u16,
            body: EventBody::Read {
                session: (i % 40) as u32,
                offset: i * 512,
                bytes: 512,
            },
        })
        .collect()
}

/// The bytes copy `rep` of segment `seg` serves on its own: every other
/// copy is lost on a clone of the set, so only that copy can answer.
/// `None` when it is lost or fails verification.
fn served_alone(set: &ReplicaSet, seg: usize, rep: usize) -> Option<Vec<u8>> {
    let mut alone = set.clone();
    for other in (0..set.replica_factor(seg)).filter(|&r| r != rep) {
        alone.lose_replica(seg, other);
    }
    alone.segment_bytes(seg).map(<[u8]>::to_vec)
}

proptest! {
    /// (e): two sets placed from one reader share its bytes, yet damage
    /// to one set's copies — placed ones, ones added by factor growth, and
    /// ones written by `restore_segment` — stays in the damaged slot. The
    /// reader, the other set and every undamaged sibling stay canonical,
    /// and a flipped copy differs from canonical in exactly that byte:
    /// flipping it back (on a clone) makes it serve the canonical bytes.
    #[test]
    fn damage_is_copy_on_write_and_never_reaches_a_sibling(
        rows in 4097u64..12_000,
        seed in any::<u64>(),
        grow in (0usize..64, 4u32..=8),
        restore_pick in 0usize..64,
        damage in proptest::collection::vec(
            proptest::option::of((any::<u64>(), 0u8..=255)),
            24
        ),
    ) {
        let bytes = write_archive(&fixed_stream(rows), META);
        let archive = Archive::from_bytes(bytes.clone()).expect("parses");
        let reader = archive.reader();
        let canon = |s: usize| reader.segments()[s].bytes().to_vec();
        let mut a = ReplicaSet::place(reader, ReplicaConfig::default(), seed);
        let b = ReplicaSet::place(reader, ReplicaConfig::default(), seed);
        let segs = a.segment_count();
        prop_assert!(a.set_replica_factor(grow.0 % segs, grow.1));
        let restored = restore_pick % segs;
        prop_assert!(a.restore_segment(restored, &canon(restored)));

        // Damage each slot at most once, in catalog order: `None` leaves
        // it alone, a zero mask loses it, any other mask flips one byte.
        let slots: Vec<(usize, usize)> = (0..segs)
            .flat_map(|s| (0..a.replica_factor(s)).map(move |r| (s, r)))
            .collect();
        let mut flips = Vec::new();
        let mut lost = Vec::new();
        for (&(s, r), hit) in slots.iter().zip(&damage) {
            match *hit {
                None => {}
                Some((_, 0)) => {
                    prop_assert!(a.lose_replica(s, r));
                    lost.push((s, r));
                }
                Some((off_pick, mask)) => {
                    let off = (off_pick % canon(s).len() as u64) as usize;
                    prop_assert!(a.corrupt_byte(s, r, off, mask));
                    flips.push((s, r, off, mask));
                }
            }
        }

        prop_assert_eq!(reader.to_bytes(), bytes.clone(), "reader untouched");
        let (other, failovers) = b.failover_reader().expect("other set is clean");
        prop_assert_eq!(failovers, 0);
        prop_assert_eq!(other.to_bytes(), bytes.clone(), "other set untouched");
        for s in 0..segs {
            for r in 0..b.replica_factor(s) {
                prop_assert_eq!(served_alone(&b, s, r), Some(canon(s)));
            }
        }
        for &(s, r) in &slots {
            let flip = flips.iter().find(|f| (f.0, f.1) == (s, r));
            if lost.contains(&(s, r)) {
                prop_assert_eq!(served_alone(&a, s, r), None);
            } else if let Some(&(_, _, off, mask)) = flip {
                prop_assert_eq!(served_alone(&a, s, r), None, "flip must not verify");
                let mut unflipped = a.clone();
                prop_assert!(unflipped.corrupt_byte(s, r, off, mask));
                prop_assert_eq!(served_alone(&unflipped, s, r), Some(canon(s)));
            } else {
                prop_assert_eq!(served_alone(&a, s, r), Some(canon(s)), "sibling {} of {}", r, s);
            }
        }

        // The probes above damaged only clones: scrub sees exactly the
        // injected damage, and the reader is still canonical.
        let report = a.scrub();
        prop_assert_eq!(report.corrupt_replicas, flips.len() as u64);
        prop_assert_eq!(report.missing_replicas, lost.len() as u64);
        prop_assert_eq!(reader.to_bytes(), bytes);
    }

    /// (a) + (b): an arbitrary single-byte flip in an arbitrary replica
    /// is always detected by scrub — never silent — and repair restores
    /// the canonical bytes exactly, proven by the healed failover reader
    /// re-serializing to the pre-damage container.
    #[test]
    fn any_single_byte_flip_is_caught_and_repaired_exactly(
        events in arb_stream(),
        seed in any::<u64>(),
        target in (0usize..64, 0usize..3, any::<u64>(), 1u8..=255),
    ) {
        let (mut set, bytes) = place(&events, seed);
        let (seg_pick, rep_pick, off_pick, mask) = target;
        let seg = seg_pick % set.segment_count();
        // Aim anywhere inside the chosen replica's copy.
        let seg_len = {
            let (reader, _) = set.failover_reader().expect("clean set reads");
            reader.segments()[seg].size_bytes()
        };
        let off = (off_pick % seg_len as u64) as usize;
        prop_assert!(set.corrupt_byte(seg, rep_pick, off, mask));

        let report = set.scrub();
        prop_assert_eq!(report.corrupt_replicas, 1, "flip at seg {} rep {} off {} mask {:#x} went unnoticed", seg, rep_pick, off, mask);
        prop_assert_eq!(report.repaired, 1);
        prop_assert!(report.healthy());

        // Healed: canonical bytes, zero failovers, clean second scrub.
        let (reader, failovers) = set.failover_reader().expect("healed set reads");
        prop_assert_eq!(failovers, 0);
        prop_assert_eq!(reader.to_bytes(), bytes);
        prop_assert_eq!(set.scrub().repaired, 0);
    }

    /// (b): losing an arbitrary replica is repaired byte-identically from
    /// a surviving copy; losing every copy of a segment is reported
    /// unrecoverable, not silently served.
    #[test]
    fn lost_replicas_are_rebuilt_byte_identically(
        events in arb_stream(),
        seed in any::<u64>(),
        seg_pick in 0usize..64,
        rep_pick in 0usize..3,
    ) {
        let (mut set, bytes) = place(&events, seed);
        let seg = seg_pick % set.segment_count();
        prop_assert!(set.lose_replica(seg, rep_pick));
        prop_assert_eq!(set.live_replicas(seg), 2);

        let report = set.scrub();
        prop_assert_eq!(report.missing_replicas, 1);
        prop_assert_eq!(report.repaired, 1);
        prop_assert_eq!(set.live_replicas(seg), 3);
        let (reader, _) = set.failover_reader().expect("healed set reads");
        prop_assert_eq!(reader.to_bytes(), bytes.clone());

        // Kill all three copies of the segment: scrub must name it.
        for rep in 0..3 {
            set.lose_replica(seg, rep);
        }
        let report = set.scrub();
        prop_assert_eq!(report.unrecoverable.clone(), vec![seg as u64]);
        prop_assert!(matches!(
            set.failover_reader(),
            Err(StoreError::CorruptSegment { .. })
        ));
    }

    /// (c): truncation anywhere across the final segment and footer
    /// recovers exactly the sealed prefix — the recovered archive
    /// re-serializes to the canonical container of the surviving whole
    /// segments, and strict opens always error. Cut points are sampled
    /// here; `every_final_segment_byte_boundary_recovers` below sweeps
    /// them exhaustively on a fixed stream.
    #[test]
    fn torn_tail_truncation_recovers_exactly_the_sealed_prefix(
        events in arb_stream(),
        phase in 0usize..64,
    ) {
        let bytes = write_archive(&events, META);
        let archive = Archive::from_bytes(bytes.clone()).expect("parses");
        let seg_rows = charisma_store::SEGMENT_ROWS;
        let whole_segments = archive.segments();
        // Byte offset where the final segment starts: header plus every
        // earlier segment. Streams here fit one segment, so this is the
        // header — the cut range still crosses every boundary class:
        // mid-varint, mid-frame, mid-checksum, mid-directory, mid-tail.
        let seg_sizes: Vec<usize> =
            archive.reader().segments().iter().map(|s| s.size_bytes()).collect();
        let last_seg_start = 28 + seg_sizes.iter().take(seg_sizes.len() - 1).sum::<usize>();
        let span = bytes.len() - last_seg_start;
        let step = (span / 48).max(1);
        for cut in (last_seg_start + phase % step..bytes.len()).step_by(step) {
            let truncated = bytes[..cut].to_vec();
            // Strict open always errors on a truncation.
            prop_assert!(Archive::from_bytes(truncated.clone()).is_err(), "cut {}", cut);
            let rec = Archive::recover_from_bytes(truncated).expect("header intact");
            prop_assert!(rec.was_torn);
            let n = rec.recovered_segments as usize;
            prop_assert!(n <= whole_segments, "cut {} recovered too much", cut);
            let rows = if n == 0 { 0 } else { (n * seg_rows).min(events.len()) };
            prop_assert_eq!(rec.archive.rows() as usize, rows, "cut {}", cut);
            prop_assert_eq!(rec.archive.events().unwrap(), events[..rows].to_vec());
            prop_assert_eq!(
                rec.archive.reader().to_bytes(),
                write_archive(&events[..rows], META)
            );
        }
    }

    /// (d): while at least one replica of every segment survives, a
    /// degraded failover reader answers every query exactly like a clean
    /// reader — same events, same serialized bytes.
    #[test]
    fn degraded_reads_equal_clean_reads_for_every_query(
        events in arb_stream(),
        seed in any::<u64>(),
        q in arb_query(),
        damage in proptest::collection::vec(
            (0usize..64, 0usize..2, any::<u64>(), 0u8..=255),
            0..12
        ),
        workers in 1usize..5,
    ) {
        let (mut set, bytes) = place(&events, seed);
        // Damage replicas 0 and 1 arbitrarily (corrupt or lose); replica
        // 2 of every segment stays live, so every segment has a good copy.
        for (seg_pick, rep, off_pick, mask) in damage {
            let seg = seg_pick % set.segment_count();
            if mask == 0 {
                set.lose_replica(seg, rep);
            } else {
                // Any offset is safe to aim at: corrupt_byte bounds-checks
                // and reports, so a miss is simply no damage.
                let off = (off_pick % bytes.len() as u64) as usize;
                let _ = set.corrupt_byte(seg, rep, off, mask);
            }
        }

        let clean = Archive::from_bytes(bytes.clone()).expect("parses");
        let (degraded, _) = set.failover_reader().expect("≥1 live replica per segment");
        prop_assert_eq!(degraded.to_bytes(), bytes);
        let got = degraded.query(q.clone()).workers(workers).events().unwrap();
        let want = clean.query(q).workers(workers).events().unwrap();
        prop_assert_eq!(got, want);
    }
}

/// The exhaustive half of promise (c): on a fixed stream, *every* byte
/// boundary from the start of the final segment through the end of the
/// file is swept — each truncation strict-errors and recovers exactly
/// the sealed prefix.
#[test]
fn every_final_segment_byte_boundary_recovers() {
    let events: Vec<OrderedEvent> = (0..200u64)
        .map(|i| OrderedEvent {
            time: SimTime::from_micros(i / 2),
            node: (i % 8) as u16,
            body: EventBody::Read {
                session: (i % 40) as u32,
                offset: i * 512,
                bytes: 4096,
            },
        })
        .collect();
    let bytes = write_archive(&events, META);
    let archive = Archive::from_bytes(bytes.clone()).expect("parses");
    assert_eq!(archive.segments(), 1, "200 rows seal into one segment");
    // One segment: it starts right after the 28-byte header, so the sweep
    // covers the whole container body — every frame byte, the segment
    // checksum, the footer directory, the file checksum, and the tail.
    for cut in 28..bytes.len() {
        let truncated = bytes[..cut].to_vec();
        assert!(Archive::from_bytes(truncated.clone()).is_err(), "cut {cut}");
        let rec = Archive::recover_from_bytes(truncated).expect("header intact");
        assert!(rec.was_torn, "cut {cut}");
        let rows = if rec.recovered_segments == 0 {
            0
        } else {
            events.len()
        };
        assert_eq!(rec.archive.rows() as usize, rows, "cut {cut}");
        assert_eq!(
            rec.archive.events().unwrap(),
            events[..rows].to_vec(),
            "cut {cut}"
        );
        assert_eq!(
            rec.archive.reader().to_bytes(),
            write_archive(&events[..rows], META),
            "cut {cut}"
        );
    }
}
