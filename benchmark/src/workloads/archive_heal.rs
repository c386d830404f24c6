//! `archive_heal`: the self-healing and tiering layers, one maintenance
//! cycle after another over one archive. A cycle places three replicas
//! of every segment, damages two segments (corrupts one copy of one and
//! loses one copy of the other, so never every copy; 2% of the archive at
//! scale 0.05), reads through failover (which must give the
//! canonical bytes), scrubs (which must repair exactly the damage), builds
//! the tiered layout from a set-up access ledger, and rebuilds one member
//! of every parity group (which must give that segment's bytes).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use charisma::obs::MetricsRegistry;
use charisma::store::{
    write_archive, Archive, Query, ReplicaConfig, ReplicaSet, SegmentAccess, StoreMetrics,
};
use charisma::tier::{TierPlan, TieredSet};
use charisma::trace::OrderedEvent;

use super::{archive_meta, generate};
use crate::host::Host;
use crate::stats::Rng;
use crate::trace::{LayerTable, Span, Tracer};
use crate::{ratio, Bench, Config, Phase, Tally, Workload, MIN_OPS};

pub(crate) struct ArchiveHeal {
    records: u64,
    bytes: Vec<u8>,
    archive: Archive,
    ledger: BTreeMap<u64, SegmentAccess>,
}

impl ArchiveHeal {
    /// Corrupt one copy of one seeded segment and lose one copy of
    /// another. Every cycle repairs the same amount, so that the seed
    /// picks where the damage falls and not how much work a cycle is.
    /// Returns the copies damaged.
    fn damage(&self, set: &mut ReplicaSet, rng: &mut Rng) -> u64 {
        let segments = self.archive.reader().segments();
        let first = rng.below(segments.len() as u64) as usize;
        let second = (first + 1 + rng.below(segments.len() as u64 - 1) as usize) % segments.len();
        let mut damaged = 0;
        for (i, seg) in [first, second].into_iter().enumerate() {
            let replica = rng.below(set.replica_factor(seg) as u64) as usize;
            let done = if i == 0 {
                let offset = rng.below(segments[seg].size_bytes() as u64) as usize;
                let mask = 1 + rng.below(255) as u8;
                set.corrupt_byte(seg, replica, offset, mask)
            } else {
                set.lose_replica(seg, replica)
            };
            damaged += u64::from(done);
        }
        damaged
    }

    fn cycle(&self, req: &Span<'_>, rng: &mut Rng, phase: &mut Phase, tally: &mut Tally) {
        let reader = self.archive.reader();
        let placement = rng.next_u64();
        let mut set = req.time("store.place", || {
            ReplicaSet::place(reader, ReplicaConfig::default(), placement)
        });
        // Computed, not measured: every copy is one segment's bytes.
        let copied: usize = reader
            .segments()
            .iter()
            .enumerate()
            .map(|(s, seg)| seg.size_bytes() * set.replica_factor(s))
            .sum();
        phase.add("place_bytes", copied as f64);
        let damaged = self.damage(&mut set, rng);

        let served = req.time("store.failover", || {
            set.failover_reader()
                .map(|(degraded, _)| degraded.to_bytes())
        });
        tally.check(served.is_ok_and(|bytes| bytes == self.bytes));
        let scrub = req.time("store.scrub", || set.scrub());
        tally.check(scrub.healthy() && scrub.repaired == damaged);
        phase.add("repaired", scrub.repaired as f64);

        let plan = TierPlan::default();
        let tiered = req.time("tier.build", || {
            TieredSet::build(reader, &self.ledger, &plan)
        });
        tally.check(tiered.report().segments == reader.segment_count() as u64);
        phase.add("parity_groups", tiered.parity_groups().len() as f64);
        let picks: Vec<u64> = tiered
            .parity_groups()
            .iter()
            .map(|g| g.members()[rng.below(g.members().len() as u64) as usize])
            .collect();
        let rebuilt: Vec<Option<Vec<u8>>> = req.time("tier.rebuild", || {
            let copies = tiered.replica_set();
            tiered
                .parity_groups()
                .iter()
                .zip(&picks)
                .map(|(group, &lost)| {
                    let survivors: Vec<(u64, &[u8])> = group
                        .members()
                        .iter()
                        .filter(|&&m| m != lost)
                        .filter_map(|&m| copies.segment_bytes(m as usize).map(|b| (m, b)))
                        .collect();
                    group.reconstruct(lost, &survivors)
                })
                .collect()
        });
        for (lost, bytes) in picks.iter().zip(rebuilt) {
            let want = reader.segments()[*lost as usize].bytes().as_ref();
            phase.add("rebuilt_bytes", want.len() as f64);
            tally.check(bytes.as_deref() == Some(want));
        }
    }
}

impl Bench for ArchiveHeal {
    /// A cycle is streaming copies, byte-serial checksums and XOR, which
    /// do not slow down when the probe's sort and scatter do: over four
    /// ten-run sets its raw cycle times spread by 0.03–0.07 (quartiles
    /// over the median), its scaled ones by 0.08–0.24. Its set-up, mostly
    /// generation, is scaled like every other: raw, it moved by 38%
    /// between two sets.
    const SCALED: bool = false;

    fn setup(cfg: &Config, req: &Span<'_>) -> Result<Self, String> {
        let scale = cfg.scale_for(Workload::ArchiveHeal);
        let events: Vec<OrderedEvent> = generate(scale, req)?;
        let bytes = req.time("store.encode", || {
            write_archive(events.iter(), archive_meta(scale))
        });
        let archive = req
            .time("store.open", || Archive::from_bytes(bytes.clone()))
            .map_err(|e| format!("archive does not open: {e}"))?;
        if archive.segments() < 2 {
            return Err("a cycle damages two segments; the archive has fewer".into());
        }
        // The access skew the tier policy classifies: the head of the
        // trace read often by every reader class, the first half once by
        // a few nodes, the tail never.
        let registry = MetricsRegistry::new();
        let access = StoreMetrics::register(&registry);
        if let Some(first) = events.first() {
            let head = events[events.len() / 10].time;
            let half = events[events.len() / 2].time;
            let scans = [
                Query::all().time_window(first.time, head),
                Query::all().time_window(first.time, head),
                Query::all().time_window(first.time, head),
                Query::all().time_window(first.time, half).nodes(&[1, 2, 3]),
            ];
            for q in scans {
                archive
                    .query(q)
                    .attach_metrics(access.clone())
                    .events()
                    .map_err(|e| format!("ledger scan failed: {e}"))?;
            }
        }
        Ok(ArchiveHeal {
            records: events.len() as u64,
            bytes,
            archive,
            ledger: access.access.snapshot(),
        })
    }

    fn records(&self) -> u64 {
        self.records
    }

    fn phase(
        &self,
        cfg: &Config,
        budget: Duration,
        tracer: &Tracer,
        host: &mut Host,
        tally: &mut Tally,
    ) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let started = Instant::now();
        while phase.ops_ms.len() < MIN_OPS || started.elapsed() < budget {
            let mut rng = Rng::new(cfg.seed, 0x4EA1 + phase.units);
            host.tick();
            let req = tracer.request("bench.cycle");
            let t = Instant::now();
            self.cycle(&req, &mut rng, &mut phase, tally);
            drop(req);
            let ms = host.ms_since(t);
            phase.ops_ms.push(ms);
            phase.rates.push(self.records as f64 / (ms / 1e3));
            phase.units += 1;
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        Ok(phase)
    }

    fn layers(
        &self,
        _untraced: &Phase,
        traced: &Phase,
        table: &LayerTable,
    ) -> Vec<(&'static str, f64)> {
        let cycles = traced.units as f64;
        let rows = self.records as f64 * cycles;
        let segments = self.archive.segments() as f64 * cycles;
        vec![
            (
                "store.place_bytes_per_s",
                table.rate("store.place", traced.get("place_bytes")),
            ),
            (
                "store.place_bytes_copied",
                ratio(traced.get("place_bytes"), cycles),
            ),
            (
                "store.failover_rows_per_s",
                table.rate("store.failover", rows),
            ),
            ("store.scrub_rows_per_s", table.rate("store.scrub", rows)),
            (
                "store.scrub_repaired",
                ratio(traced.get("repaired"), cycles),
            ),
            (
                "tier.build_segments_per_s",
                table.rate("tier.build", segments),
            ),
            (
                "tier.parity_groups",
                ratio(traced.get("parity_groups"), cycles),
            ),
            (
                "tier.rebuild_bytes_per_s",
                table.rate("tier.rebuild", traced.get("rebuilt_bytes")),
            ),
        ]
    }
}
