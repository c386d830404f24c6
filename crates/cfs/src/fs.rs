//! The Concurrent File System proper.
//!
//! A Unix-like interface — open, read, write, seek, close, delete — with
//! CFS's parallel-access additions: the four I/O modes, round-robin 4 KB
//! striping across the I/O nodes, and an I/O-node-only buffer cache
//! ("Only the I/O nodes have a buffer cache", §2.4).
//!
//! The simulator is *timed*: every request computes a completion time from
//! the network model (request and reply messages to the I/O nodes it
//! engages), the per-I/O-node buffer cache, and the per-disk FIFO queue.
//! Writes are modeled with write-behind — the client is acknowledged once
//! the blocks are in the I/O-node cache, while the disk queue absorbs the
//! traffic in the background — matching CFS's buffered writes.

use std::collections::BTreeMap;

use charisma_ipsc::{Duration, Machine, SimTime};
use charisma_obs::{Counter, Histogram, HistogramTally, MetricsRegistry};

use crate::cache::{LruCache, Touch};
use crate::disk::{DiskModel, DiskState};
use crate::error::CfsError;
use crate::faults::CfsFaults;
use crate::mode::IoMode;
use crate::stripe::Striping;
use crate::BLOCK_BYTES;

/// How an open intends to use a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Access {
    /// Read-only open.
    Read,
    /// Write-only open.
    Write,
    /// Read-write open.
    ReadWrite,
}

impl Access {
    /// Whether reads are permitted.
    pub fn can_read(self) -> bool {
        self != Access::Write
    }

    /// Whether writes are permitted.
    pub fn can_write(self) -> bool {
        self != Access::Read
    }
}

/// Static CFS configuration.
#[derive(Clone, Debug)]
pub struct CfsConfig {
    /// Number of I/O nodes (each with one disk).
    pub io_nodes: usize,
    /// Disk timing model.
    pub disk: DiskModel,
    /// Capacity of each disk, bytes.
    pub disk_capacity_bytes: u64,
    /// Online I/O-node cache size, in 4 KB blocks per I/O node. The NAS
    /// I/O nodes had 4 MB; roughly half was buffer cache (~512 blocks).
    pub cache_blocks_per_io_node: usize,
    /// I/O-node CPU time to service a request from cache, µs.
    pub cache_op_us: u64,
}

impl CfsConfig {
    /// The NAS iPSC/860 CFS: 10 I/O nodes, 760 MB disks, ~512-block caches.
    pub fn nas() -> Self {
        CfsConfig {
            io_nodes: 10,
            disk: DiskModel::default(),
            disk_capacity_bytes: 760 << 20,
            cache_blocks_per_io_node: 512,
            cache_op_us: 300,
        }
    }

    /// A tiny configuration for tests: 2 I/O nodes, 8 MB disks.
    pub fn tiny() -> Self {
        CfsConfig {
            io_nodes: 2,
            disk: DiskModel::default(),
            disk_capacity_bytes: 8 << 20,
            cache_blocks_per_io_node: 16,
            cache_op_us: 300,
        }
    }

    /// Total file-system capacity, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.disk_capacity_bytes * self.io_nodes as u64
    }
}

/// Result of one successful open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenResult {
    /// The session this node attached to (shared by the job's nodes).
    pub session: u32,
    /// The file's path identity.
    pub file: u32,
    /// Whether this session created the file.
    pub created: bool,
}

/// Result of one read or write request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoOutcome {
    /// File offset the request actually started at (mode-resolved).
    pub offset: u64,
    /// Bytes actually transferred (reads truncate at end of file).
    pub bytes: u32,
    /// Simulated completion time of the request.
    pub completion: SimTime,
    /// Network messages exchanged (requests + replies).
    pub messages: u64,
    /// Blocks touched.
    pub blocks: u64,
    /// Blocks served from the I/O-node cache.
    pub cache_hits: u64,
}

/// Aggregate counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CfsStats {
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Block-level I/O-node cache hits.
    pub cache_hits: u64,
    /// Block-level I/O-node cache misses.
    pub cache_misses: u64,
    /// Total network messages.
    pub messages: u64,
}

/// Metric handles a [`Cfs`] publishes into, once, when it is dropped (see
/// [`Cfs::attach_metrics`]). Everything here is simulated-time data —
/// deterministic for a fixed seed.
#[derive(Clone, Debug, Default)]
pub struct CfsMetrics {
    /// Requests by I/O mode, indexed by [`IoMode::code`].
    pub mode_requests: [Counter; 4],
    /// Read requests served (plain, strided, and collective).
    pub reads: Counter,
    /// Write requests served (plain, strided, and collective).
    pub writes: Counter,
    /// Block-level I/O-node cache hits.
    pub cache_hits: Counter,
    /// Block-level I/O-node cache misses.
    pub cache_misses: Counter,
    /// I/O nodes engaged per request (stripe fan-out).
    pub stripe_fanout: Histogram,
    /// Per-block disk service time, simulated µs (queue wait excluded).
    pub disk_service_us: Histogram,
}

impl CfsMetrics {
    /// Handles registered under the `cfs.` prefix of `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        CfsMetrics {
            mode_requests: std::array::from_fn(|m| {
                registry.counter(&format!("cfs.requests.mode{m}"))
            }),
            reads: registry.counter("cfs.read_requests"),
            writes: registry.counter("cfs.write_requests"),
            cache_hits: registry.counter("cfs.cache_hits"),
            cache_misses: registry.counter("cfs.cache_misses"),
            stripe_fanout: registry.histogram("cfs.stripe_fanout"),
            disk_service_us: registry.histogram("cfs.disk_service_us"),
        }
    }
}

#[derive(Clone, Debug)]
struct FileMeta {
    size: u64,
    exists: bool,
    /// Blocks of this file resident in any I/O-node cache, kept from the
    /// caches' miss, eviction and invalidation outcomes. A `u32` keeps
    /// the entry at 16 bytes; counting past it would need 2^32 blocks
    /// resident at once, hundreds of GB of cache state.
    resident: u32,
    /// I/O nodes whose caches may hold a block of this file that a stripe
    /// failover served away from its home node; node `io` is bit
    /// `io % 16`. It fills the entry's padding, so the entry stays 16 bytes.
    off_home: u16,
}

/// The bit of `io` in [`FileMeta::off_home`].
fn off_home_bit(io: usize) -> u16 {
    1 << (io % 16)
}

#[derive(Debug)]
struct Session {
    job: u32,
    file: u32,
    mode: IoMode,
    access: Access,
    created: bool,
    /// Attach order; round-robin turn order.
    nodes: Vec<u16>,
    /// Per-node pointers (mode 0).
    node_ptrs: BTreeMap<u16, u64>,
    /// Shared pointer (modes 1-3).
    shared_ptr: u64,
    /// Index into `nodes` of the node whose turn it is (modes 2-3).
    rr_turn: usize,
    /// Established request size (mode 3).
    fixed_size: Option<u32>,
    /// Nodes still attached.
    live_nodes: usize,
    live: bool,
}

/// The CFS instance: file table, open sessions, disks, and caches.
pub struct Cfs {
    config: CfsConfig,
    striping: Striping,
    files: Vec<FileMeta>,
    paths: BTreeMap<String, u32>,
    sessions: Vec<Session>,
    /// Live (job, file) → session map, for parallel attach.
    open_index: BTreeMap<(u32, u32), u32>,
    disks: Vec<DiskState>,
    caches: Vec<LruCache>,
    used_bytes: u64,
    stats: CfsStats,
    tally: CfsTally,
    metrics: Option<CfsMetrics>,
    faults: Option<CfsFaults>,
    scratch: RequestScratch,
}

/// What [`CfsMetrics`] reports beyond [`CfsStats`], counted in plain
/// fields and published when the [`Cfs`] drops.
#[derive(Debug, Default)]
struct CfsTally {
    /// Requests by I/O mode, indexed by [`IoMode::code`].
    mode_requests: [u64; 4],
    stripe_fanout: HistogramTally,
    disk_service_us: HistogramTally,
}

/// Buffers reused by every explicit-list request instead of allocated
/// per request.
#[derive(Default)]
struct RequestScratch {
    /// The I/O node of each touch.
    node_of: Vec<u32>,
    /// Touch indices grouped by I/O node, each group in request order.
    order: Vec<u32>,
    /// `ends[io]` is where I/O node `io`'s group in `order` ends; it
    /// starts where group `io - 1` ends.
    ends: Vec<u32>,
}

impl RequestScratch {
    /// Group `touches` by I/O node with one stable counting sort.
    fn bucket(&mut self, striping: Striping, touches: &[(u64, u32)]) {
        self.ends.clear();
        self.ends.resize(striping.io_nodes, 0);
        self.node_of.clear();
        for &(b, _) in touches {
            let io = striping.io_node_of(b);
            self.node_of.push(io as u32);
            self.ends[io] += 1;
        }
        let mut start = 0;
        for slot in &mut self.ends {
            let count = *slot;
            *slot = start;
            start += count;
        }
        self.order.clear();
        self.order.resize(touches.len(), 0);
        for (i, &io) in self.node_of.iter().enumerate() {
            let slot = &mut self.ends[io as usize];
            self.order[*slot as usize] = i as u32;
            *slot += 1;
        }
    }

    /// The touch indices I/O node `io` serves, in request order.
    fn group(&self, io: usize) -> &[u32] {
        let start = if io == 0 { 0 } else { self.ends[io - 1] };
        &self.order[start as usize..self.ends[io] as usize]
    }
}

impl Cfs {
    /// Create a file system.
    pub fn new(config: CfsConfig) -> Self {
        let striping = Striping::cfs(config.io_nodes);
        let disks = (0..config.io_nodes).map(|_| DiskState::default()).collect();
        let caches = (0..config.io_nodes)
            .map(|_| LruCache::new(config.cache_blocks_per_io_node))
            .collect();
        Cfs {
            config,
            striping,
            files: Vec::new(),
            paths: BTreeMap::new(),
            sessions: Vec::new(),
            open_index: BTreeMap::new(),
            disks,
            caches,
            used_bytes: 0,
            stats: CfsStats::default(),
            tally: CfsTally::default(),
            metrics: None,
            faults: None,
            scratch: RequestScratch::default(),
        }
    }

    /// Publish request, cache, stripe, and disk activity into `metrics`
    /// when the file system is dropped. It counts in plain fields (its
    /// [`CfsStats`] among them) whether or not metrics are attached, so the
    /// published totals cover its whole life.
    pub fn attach_metrics(&mut self, metrics: CfsMetrics) {
        self.metrics = Some(metrics);
    }

    /// Inject disk transients, service degradation, I/O-node failures,
    /// and stalls — with retry, backoff, timeout, and stripe failover —
    /// into every request from now on. Callers normally gate on
    /// `FaultPlan::is_empty`; without this call the request path is
    /// exactly the fault-free simulator.
    pub fn attach_faults(&mut self, faults: CfsFaults) {
        self.faults = Some(faults);
    }

    /// The static configuration.
    pub fn config(&self) -> &CfsConfig {
        &self.config
    }

    /// The striping function in force.
    pub fn striping(&self) -> Striping {
        self.striping
    }

    /// Aggregate counters.
    pub fn stats(&self) -> CfsStats {
        self.stats
    }

    /// Bytes currently allocated on disk.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Current size of a file, if it exists.
    pub fn file_size(&self, file: u32) -> Option<u64> {
        self.files
            .get(file as usize)
            .filter(|f| f.exists)
            .map(|f| f.size)
    }

    /// Size of `file`, or zero when the id is unknown (typed-error
    /// hardening: I/O-shaped lookups must not panic under fault injection).
    fn file_size_or_zero(&self, file: u32) -> u64 {
        self.files.get(file as usize).map_or(0, |m| m.size)
    }

    /// Look up a path's file id without opening it.
    pub fn lookup(&self, path: &str) -> Option<u32> {
        self.paths
            .get(path)
            .copied()
            .filter(|&f| self.files.get(f as usize).is_some_and(|m| m.exists))
    }

    /// Open `path` from `node` on behalf of `job`.
    ///
    /// The first node of a job to open a path creates the session; the
    /// job's other nodes attach to it (they must use the same mode). A
    /// write-capable open of a missing file creates it; `truncate` resets
    /// an existing file to zero length.
    pub fn open(
        &mut self,
        job: u32,
        path: &str,
        access: Access,
        mode: IoMode,
        node: u16,
        truncate: bool,
    ) -> Result<OpenResult, CfsError> {
        // Resolve or create the file.
        let (file, created) = match self.lookup(path) {
            Some(f) => (f, false),
            None => {
                if !access.can_write() {
                    return Err(CfsError::NoSuchFile);
                }
                // A deleted path is recreated under a fresh id so old cached
                // blocks can never alias the new file's blocks.
                self.files.push(FileMeta {
                    size: 0,
                    exists: true,
                    resident: 0,
                    off_home: 0,
                });
                let id = (self.files.len() - 1) as u32;
                self.paths.insert(path.to_owned(), id);
                (id, true)
            }
        };

        // Attach to a live session for (job, file), or start one.
        if let Some(&sid) = self.open_index.get(&(job, file)) {
            let session = &mut self.sessions[sid as usize];
            if session.nodes.contains(&node) && session.node_ptrs.contains_key(&node) {
                return Err(CfsError::AlreadyAttached { session: sid, node });
            }
            session.nodes.push(node);
            session.node_ptrs.insert(node, 0);
            session.live_nodes += 1;
            return Ok(OpenResult {
                session: sid,
                file,
                created: session.created,
            });
        }

        if truncate && !created {
            self.truncate_file(file);
        }
        let sid = self.sessions.len() as u32;
        let mut node_ptrs = BTreeMap::new();
        node_ptrs.insert(node, 0u64);
        self.sessions.push(Session {
            job,
            file,
            mode,
            access,
            created,
            nodes: vec![node],
            node_ptrs,
            shared_ptr: 0,
            rr_turn: 0,
            fixed_size: None,
            live_nodes: 1,
            live: true,
        });
        self.open_index.insert((job, file), sid);
        Ok(OpenResult {
            session: sid,
            file,
            created,
        })
    }

    /// Close `node`'s attachment to `session`; returns the file size at
    /// close (Figure 3's metric).
    pub fn close(&mut self, session: u32, node: u16) -> Result<u64, CfsError> {
        let s = self.session_mut(session)?;
        if s.node_ptrs.remove(&node).is_none() {
            return Err(CfsError::NotAttached { session, node });
        }
        s.live_nodes -= 1;
        let file = s.file;
        if s.live_nodes == 0 {
            s.live = false;
            let job = s.job;
            self.open_index.remove(&(job, file));
        }
        Ok(self.file_size_or_zero(file))
    }

    /// Reposition `node`'s pointer (mode 0 only).
    pub fn seek(&mut self, session: u32, node: u16, offset: u64) -> Result<(), CfsError> {
        let s = self.session_mut(session)?;
        if s.mode.shares_pointer() {
            return Err(CfsError::SeekOnSharedPointer { session });
        }
        match s.node_ptrs.get_mut(&node) {
            Some(p) => {
                *p = offset;
                Ok(())
            }
            None => Err(CfsError::NotAttached { session, node }),
        }
    }

    /// `node`'s current pointer (mode 0), or the shared pointer.
    pub fn tell(&self, session: u32, node: u16) -> Result<u64, CfsError> {
        let s = self.session(session)?;
        if s.mode.shares_pointer() {
            Ok(s.shared_ptr)
        } else {
            s.node_ptrs
                .get(&node)
                .copied()
                .ok_or(CfsError::NotAttached { session, node })
        }
    }

    /// Read `bytes` bytes at the mode-resolved offset.
    pub fn read(
        &mut self,
        machine: &Machine,
        session: u32,
        node: u16,
        bytes: u32,
        now: SimTime,
    ) -> Result<IoOutcome, CfsError> {
        let (file, offset, actual, mode) = {
            let (size, mode) = {
                let s = self.session(session)?;
                if !s.access.can_read() {
                    return Err(CfsError::AccessDenied { session });
                }
                (self.file_size_or_zero(s.file), s.mode)
            };
            let (file, offset) = self.resolve_offset(session, node, bytes, false)?;
            let actual = (size.saturating_sub(offset)).min(u64::from(bytes)) as u32;
            (file, offset, actual, mode)
        };
        self.advance_pointer(session, node, u64::from(actual));
        let (completion, messages, blocks, hits) =
            self.access_blocks(machine, node, file, offset, u64::from(actual), now, false)?;
        self.note_read(mode, u64::from(actual));
        Ok(IoOutcome {
            offset,
            bytes: actual,
            completion,
            messages,
            blocks,
            cache_hits: hits,
        })
    }

    /// Write `bytes` bytes at the mode-resolved offset, extending the file
    /// if needed.
    pub fn write(
        &mut self,
        machine: &Machine,
        session: u32,
        node: u16,
        bytes: u32,
        now: SimTime,
    ) -> Result<IoOutcome, CfsError> {
        let mode = {
            let s = self.session(session)?;
            if !s.access.can_write() {
                return Err(CfsError::AccessDenied { session });
            }
            s.mode
        };
        let (file, offset) = self.resolve_offset(session, node, bytes, true)?;
        self.extend_file(file, offset + u64::from(bytes))?;
        self.advance_pointer(session, node, u64::from(bytes));
        let (completion, messages, blocks, hits) =
            self.access_blocks(machine, node, file, offset, u64::from(bytes), now, true)?;
        self.note_write(mode, u64::from(bytes));
        Ok(IoOutcome {
            offset,
            bytes,
            completion,
            messages,
            blocks,
            cache_hits: hits,
        })
    }

    /// Delete a file, releasing its space and invalidating cached blocks.
    pub fn delete(&mut self, file: u32) -> Result<(), CfsError> {
        let meta = self
            .files
            .get_mut(file as usize)
            .filter(|f| f.exists)
            .ok_or(CfsError::NoSuchFile)?;
        meta.exists = false;
        let size = std::mem::take(&mut meta.size);
        self.release(file, size);
        Ok(())
    }

    /// Per-disk state (utilization accounting, tests).
    pub fn disk(&self, io: usize) -> &DiskState {
        &self.disks[io]
    }

    /// Drop every I/O-node cache (cold-cache experiments; the real
    /// machine's caches were cold after a reboot or an idle night).
    pub fn drop_caches(&mut self) {
        for cache in &mut self.caches {
            *cache = LruCache::new(self.config.cache_blocks_per_io_node);
        }
        for meta in &mut self.files {
            meta.resident = 0;
            meta.off_home = 0;
        }
    }

    // -- internals ---------------------------------------------------------

    fn session(&self, id: u32) -> Result<&Session, CfsError> {
        self.sessions
            .get(id as usize)
            .filter(|s| s.live)
            .ok_or(CfsError::NotOpen { session: id })
    }

    fn session_mut(&mut self, id: u32) -> Result<&mut Session, CfsError> {
        self.sessions
            .get_mut(id as usize)
            .filter(|s| s.live)
            .ok_or(CfsError::NotOpen { session: id })
    }

    /// Resolve the starting offset of a request under the session's mode,
    /// enforcing turn order and fixed sizes, *without* advancing pointers.
    fn resolve_offset(
        &mut self,
        session: u32,
        node: u16,
        bytes: u32,
        _is_write: bool,
    ) -> Result<(u32, u64), CfsError> {
        let s = self.session_mut(session)?;
        if !s.node_ptrs.contains_key(&node) {
            return Err(CfsError::NotAttached { session, node });
        }
        let offset = match s.mode {
            IoMode::Independent => s.node_ptrs[&node],
            IoMode::SharedPointer => s.shared_ptr,
            IoMode::RoundRobin | IoMode::RoundRobinFixed => {
                let expected = s.nodes[s.rr_turn % s.nodes.len()];
                if expected != node {
                    return Err(CfsError::OutOfTurn {
                        session,
                        node,
                        expected,
                    });
                }
                if s.mode.fixed_size() {
                    match s.fixed_size {
                        None => s.fixed_size = Some(bytes),
                        Some(fs) if fs != bytes => {
                            return Err(CfsError::SizeMismatch {
                                session,
                                expected: fs,
                                got: bytes,
                            })
                        }
                        _ => {}
                    }
                }
                s.rr_turn += 1;
                s.shared_ptr
            }
        };
        charisma_ipsc::invariant!(
            s.mode.shares_pointer() || s.shared_ptr == 0,
            "mode-0 session {session} advanced the shared pointer"
        );
        charisma_ipsc::invariant!(
            s.mode.ordered() || s.rr_turn == 0,
            "unordered session {session} advanced the round-robin turn"
        );
        charisma_ipsc::invariant!(
            s.mode.fixed_size() || s.fixed_size.is_none(),
            "session {session} pinned a request size outside mode 3"
        );
        Ok((s.file, offset))
    }

    fn advance_pointer(&mut self, session: u32, node: u16, by: u64) {
        // Callers validate the session first; an unknown id is a no-op
        // rather than a panic so injected faults can never bring the
        // host down through a stale handle.
        let Some(s) = self.sessions.get_mut(session as usize) else {
            return;
        };
        if s.mode.shares_pointer() {
            s.shared_ptr += by;
        } else if let Some(p) = s.node_ptrs.get_mut(&node) {
            *p += by;
        }
    }

    fn truncate_file(&mut self, file: u32) {
        let Some(meta) = self.files.get_mut(file as usize) else {
            return;
        };
        let size = std::mem::take(&mut meta.size);
        self.release(file, size);
    }

    /// Free the disk space of `file`'s first `size` bytes and drop their
    /// blocks from every cache that may hold them: the home I/O node's,
    /// and each node in the file's `off_home` mask.
    ///
    /// The walk runs from the last block down and stops once none of the
    /// file's blocks is resident anywhere, so a file with nothing cached
    /// costs no probe at all. Stopping early is exact: the resident count
    /// counts every copy, every block left unprobed is absent, and the
    /// order of invalidations within one cache is not observable.
    fn release(&mut self, file: u32, size: u64) {
        let blocks = size.div_ceil(BLOCK_BYTES);
        self.used_bytes -= blocks * BLOCK_BYTES;
        let Cfs {
            striping,
            files,
            caches,
            ..
        } = self;
        let meta = &mut files[file as usize];
        if meta.resident == 0 || blocks == 0 {
            return;
        }
        let n = striping.io_nodes;
        let off_home = meta.off_home;
        // Drop one copy; true once none of the file's blocks is resident.
        let mut drop_copy = |io: usize, b: u64| {
            if caches[io].invalidate((file, b)) {
                meta.resident -= 1;
            }
            meta.resident == 0
        };
        let mut home = striping.io_node_of(blocks - 1);
        for b in (0..blocks).rev() {
            let done = drop_copy(home, b)
                || (off_home != 0
                    && (0..n).any(|io| {
                        io != home && off_home & off_home_bit(io) != 0 && drop_copy(io, b)
                    }));
            if done {
                meta.off_home = 0;
                return;
            }
            home = home.checked_sub(1).unwrap_or(n - 1);
        }
    }

    fn extend_file(&mut self, file: u32, new_end: u64) -> Result<(), CfsError> {
        let meta = self
            .files
            .get_mut(file as usize)
            .ok_or(CfsError::NoSuchFile)?;
        if new_end <= meta.size {
            return Ok(());
        }
        let old_blocks = meta.size.div_ceil(BLOCK_BYTES);
        let new_blocks = new_end.div_ceil(BLOCK_BYTES);
        let added = (new_blocks - old_blocks) * BLOCK_BYTES;
        if self.used_bytes + added > self.config.capacity_bytes() {
            return Err(CfsError::NoSpace {
                short_by: self.used_bytes + added - self.config.capacity_bytes(),
            });
        }
        self.used_bytes += added;
        meta.size = new_end;
        Ok(())
    }

    /// Perform the block-level work of a contiguous request.
    ///
    /// No touch list is built: I/O node `io` serves the request's blocks
    /// from the first one it owns, `first + ((io - first) mod n)`, stepping
    /// by `n` — the same groups, in the same order, that bucketing the
    /// request's block list would give.
    ///
    /// Returns `(completion, messages, blocks, cache_hits)`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the request's coordinates plus the caller's fault and cache context; grouping them would only move the list into a one-use struct"
    )]
    fn access_blocks(
        &mut self,
        machine: &Machine,
        node: u16,
        file: u32,
        offset: u64,
        len: u64,
        now: SimTime,
        is_write: bool,
    ) -> Result<(SimTime, u64, u64, u64), CfsError> {
        let range = self.striping.blocks_of_request(offset, len);
        if range.is_empty() {
            // Degenerate request: still one round trip to I/O node 0.
            let io = self.striping.io_node_of(range.start);
            let rtt = machine.io_message_latency(node as usize, io, 64).times(2);
            self.stats.messages += 2;
            return Ok((now + rtt, 2, 0, 0));
        }
        let n = self.striping.io_nodes;
        let lead = self.striping.io_node_of(range.start);
        let (first, end) = (range.start, range.end);
        self.serve(machine, node, file, now, is_write, |io| {
            let skip = if io >= lead { io - lead } else { io + n - lead };
            (first + skip as u64..end)
                .step_by(n)
                .map(move |b| (b, block_overlap(offset, len, b)))
        })
    }

    /// Serve an explicit `(block, touched_bytes)` list for one compute
    /// node; the strided and collective requests' entry to
    /// [`Self::serve`]. The touches are grouped by I/O node once, each
    /// group in request order.
    ///
    /// Returns `(completion, messages, blocks, cache_hits)`.
    pub(crate) fn serve_block_list(
        &mut self,
        machine: &Machine,
        node: u16,
        file: u32,
        touches: &[(u64, u32)],
        now: SimTime,
        is_write: bool,
    ) -> Result<(SimTime, u64, u64, u64), CfsError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.bucket(self.striping, touches);
        let grouped = &scratch;
        let out = self.serve(machine, node, file, now, is_write, |io| {
            grouped.group(io).iter().map(|&i| touches[i as usize])
        });
        self.scratch = scratch;
        out
    }

    /// Serve one request of `file` for compute node `node`: one
    /// request/reply message pair per engaged I/O node, cache lookups,
    /// and serial disk chains. `group(io)` yields the `(block,
    /// touched_bytes)` pairs I/O node `io` owns, in the order it serves
    /// them. Every request shape, plain, strided or collective, goes
    /// through this one loop.
    ///
    /// The nodes are served in index order. That order is observable — a
    /// down node's group shares its failover target's cache and disk — so
    /// it is part of the contract.
    ///
    /// With faults attached, this is also where recovery happens: a
    /// stripe whose I/O node is down fails over wholesale to the next
    /// live node; a flaky block read retries with capped exponential
    /// backoff and, past the retry budget, is read around from the next
    /// live node's replica; every degraded/slow path is still a plain
    /// completion time. Only when *no* live node remains does the request
    /// surface [`CfsError::Degraded`].
    ///
    /// Returns `(completion, messages, blocks, cache_hits)`.
    fn serve<G, I>(
        &mut self,
        machine: &Machine,
        node: u16,
        file: u32,
        now: SimTime,
        is_write: bool,
        group: G,
    ) -> Result<(SimTime, u64, u64, u64), CfsError>
    where
        G: Fn(usize) -> I,
        I: Iterator<Item = (u64, u32)>,
    {
        let Cfs {
            config,
            files,
            disks,
            caches,
            stats,
            tally,
            faults,
            ..
        } = self;
        let faults = faults.as_ref();
        let block_service = config.disk.block_service(BLOCK_BYTES);
        let now_us = now.as_micros();
        let degrade_ppm = faults.map_or(0, |f| f.degrade_ppm());
        let cache_op = Duration::from_micros(config.cache_op_us);
        let mut completion = now;
        let mut messages = 0u64;
        let mut blocks = 0u64;
        let mut hits = 0u64;
        let mut fanout = 0u64;
        let io_count = config.io_nodes;
        for io in 0..io_count {
            // Stripe failover: a down I/O node's whole block group is
            // redirected to the next live node (cache and disk included).
            // Every node is checked, engaged or not, so a request with no
            // live node left reports the first node, 0.
            let mut serve_io = io;
            if let Some(f) = faults {
                if f.io_down(io, now_us) {
                    match f.next_live(io, io_count, now_us) {
                        Some(alt) => serve_io = alt,
                        None => return Err(CfsError::Degraded { io_node: io as u32 }),
                    }
                }
            }
            let mut blocks_here = group(io).peekable();
            let Some(&(first, _)) = blocks_here.peek() else {
                continue;
            };
            fanout += 1;
            // Request message reaches the (possibly failover) I/O node.
            let mut io_done = now + machine.io_message_latency(node as usize, serve_io, 64);
            messages += 1;
            if let Some(f) = faults {
                if serve_io != io {
                    f.note_degraded();
                    files[file as usize].off_home |= off_home_bit(serve_io);
                }
                if let Some(stall) = f.stall_us(serve_io as u64, file, first) {
                    io_done += Duration::from_micros(stall);
                }
            }
            let mut io_bytes = 0u64;
            for (b, touched) in blocks_here {
                blocks += 1;
                io_bytes += u64::from(touched);
                match caches[serve_io].touch((file, b)) {
                    Touch::Hit => {
                        hits += 1;
                        stats.cache_hits += 1;
                        io_done += cache_op;
                        continue;
                    }
                    Touch::Miss { evicted } => {
                        files[file as usize].resident += 1;
                        if let Some((gone, _)) = evicted {
                            files[gone as usize].resident -= 1;
                        }
                    }
                }
                stats.cache_misses += 1;
                if is_write {
                    // Write-behind: the client pays only the cache
                    // insertion; the disk absorbs the block later.
                    io_done += cache_op;
                    let disk = &mut disks[serve_io];
                    let busy_before = disk.busy_us;
                    disk.serve_degraded(block_service, file, b, io_done, true, degrade_ppm);
                    tally.disk_service_us.record(disk.busy_us - busy_before);
                } else {
                    // A flaky block read retries with backoff; past the
                    // budget it is read around from the next live node.
                    let mut disk_io = serve_io;
                    if let Some(f) = faults {
                        if let Some(fails) = f.transient_failures(serve_io as u64, file, b) {
                            let budget = u64::from(f.retry().max_retries);
                            for attempt in 0..fails.min(budget) {
                                io_done +=
                                    Duration::from_micros(f.backoff_us(file, b, attempt as u32));
                            }
                            if fails > budget {
                                match f.next_live(disk_io, io_count, now_us) {
                                    Some(alt) => {
                                        f.note_degraded();
                                        disk_io = alt;
                                    }
                                    None => {
                                        return Err(CfsError::Degraded {
                                            io_node: disk_io as u32,
                                        })
                                    }
                                }
                            }
                        }
                    }
                    let disk = &mut disks[disk_io];
                    let busy_before = disk.busy_us;
                    io_done =
                        disk.serve_degraded(block_service, file, b, io_done, false, degrade_ppm);
                    tally.disk_service_us.record(disk.busy_us - busy_before);
                }
            }
            // Reply message carries the data (reads) or the ack (writes).
            let reply_bytes = if is_write { 32 } else { io_bytes.max(32) };
            let done = io_done + machine.io_message_latency(node as usize, serve_io, reply_bytes);
            messages += 1;
            completion = completion.max(done);
        }
        stats.messages += messages;
        tally.stripe_fanout.record(fanout);
        // Per-request timeout: a request that exceeds the budget pays one
        // extra client-side backoff (the caller's reissue) and is counted.
        if let Some(f) = faults {
            let timeout = f.retry().timeout_us;
            if timeout > 0 && completion.since(now).as_micros() > timeout {
                f.note_timeout();
                completion += Duration::from_micros(f.retry().base_backoff_us);
            }
        }
        Ok((completion, messages, blocks, hits))
    }

    /// Session facts needed by the extension interfaces:
    /// `(file, mode, (can_read, can_write))`.
    pub(crate) fn session_info(
        &self,
        session: u32,
    ) -> Result<(u32, IoMode, (bool, bool)), CfsError> {
        let s = self.session(session)?;
        Ok((s.file, s.mode, (s.access.can_read(), s.access.can_write())))
    }

    /// Extend a file for an extension-interface write.
    pub(crate) fn reserve(&mut self, file: u32, new_end: u64) -> Result<(), CfsError> {
        self.extend_file(file, new_end)
    }

    /// Account a served read request of session mode `mode`: plain,
    /// strided or collective.
    pub(crate) fn note_read(&mut self, mode: IoMode, bytes: u64) {
        self.stats.reads += 1;
        self.stats.bytes_read += bytes;
        self.tally.mode_requests[usize::from(mode.code())] += 1;
    }

    /// Account a served write request of session mode `mode`: plain,
    /// strided or collective.
    pub(crate) fn note_write(&mut self, mode: IoMode, bytes: u64) {
        self.stats.writes += 1;
        self.stats.bytes_written += bytes;
        self.tally.mode_requests[usize::from(mode.code())] += 1;
    }
}

impl Drop for Cfs {
    fn drop(&mut self) {
        let Some(m) = &self.metrics else {
            return;
        };
        for (counter, &n) in m.mode_requests.iter().zip(&self.tally.mode_requests) {
            counter.add(n);
        }
        m.reads.add(self.stats.reads);
        m.writes.add(self.stats.writes);
        m.cache_hits.add(self.stats.cache_hits);
        m.cache_misses.add(self.stats.cache_misses);
        m.stripe_fanout.absorb(&self.tally.stripe_fanout);
        m.disk_service_us.absorb(&self.tally.disk_service_us);
    }
}

/// Bytes of block `block` overlapped by the byte range `[offset, offset+len)`.
pub fn block_overlap(offset: u64, len: u64, block: u64) -> u32 {
    let bstart = block * BLOCK_BYTES;
    let bend = bstart + BLOCK_BYTES;
    let start = offset.max(bstart);
    let end = (offset + len).min(bend);
    end.saturating_sub(start) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::BlockKey;
    use charisma_ipsc::MachineConfig;

    fn setup() -> (Machine, Cfs) {
        let machine = Machine::boot_synchronized(MachineConfig::tiny());
        let cfs = Cfs::new(CfsConfig::tiny());
        (machine, cfs)
    }

    fn t0() -> SimTime {
        SimTime::from_secs(1)
    }

    fn write_then_reopen(m: &Machine, fs: &mut Cfs, bytes: u32) -> u32 {
        let open = fs
            .open(1, "/f", Access::ReadWrite, IoMode::Independent, 0, false)
            .unwrap();
        fs.write(m, open.session, 0, bytes, t0()).unwrap();
        fs.close(open.session, 0).unwrap();
        fs.drop_caches();
        let open = fs
            .open(1, "/f", Access::Read, IoMode::Independent, 0, false)
            .unwrap();
        open.session
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_no_faults() {
        use charisma_ipsc::faults::FaultPlan;
        let (m, mut plain) = setup();
        let (_, mut chaos) = setup();
        chaos.attach_faults(CfsFaults::new(&FaultPlan::none(), 99, None));
        for fs in [&mut plain, &mut chaos] {
            let s = write_then_reopen(&m, fs, 64 * 1024);
            let out = fs.read(&m, s, 0, 64 * 1024, t0()).unwrap();
            assert!(out.completion > t0());
        }
        assert_eq!(plain.stats(), chaos.stats());
    }

    #[test]
    fn down_io_node_fails_over_and_counts_degraded() {
        use charisma_ipsc::faults::{FaultPlan, IoNodeDown};
        use charisma_obs::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let fm = charisma_ipsc::faults::FaultMetrics::register(&registry);
        let (m, mut fs) = setup(); // tiny: 2 I/O nodes
        let mut plan = FaultPlan::none();
        plan.io_node_down.push(IoNodeDown {
            io_node: 1,
            at_us: 0,
        });
        fs.attach_faults(CfsFaults::new(&plan, 5, Some(fm)));
        let s = write_then_reopen(&m, &mut fs, 64 * 1024);
        let out = fs.read(&m, s, 0, 64 * 1024, t0()).unwrap();
        assert_eq!(out.bytes, 64 * 1024, "read-around still serves the data");
        let snap = registry.snapshot();
        assert!(snap.counters["faults.degraded"] > 0);
    }

    #[test]
    fn all_nodes_down_surfaces_degraded_error() {
        use charisma_ipsc::faults::{FaultPlan, IoNodeDown};
        let (m, mut fs) = setup();
        let s = write_then_reopen(&m, &mut fs, 16 * 1024);
        let mut plan = FaultPlan::none();
        for io in 0..2 {
            plan.io_node_down.push(IoNodeDown {
                io_node: io,
                at_us: 0,
            });
        }
        fs.attach_faults(CfsFaults::new(&plan, 5, None));
        let err = fs.read(&m, s, 0, 16 * 1024, t0()).unwrap_err();
        assert!(matches!(err, CfsError::Degraded { .. }), "{err}");
    }

    #[test]
    fn transient_reads_retry_and_cost_backoff() {
        use charisma_ipsc::faults::FaultPlan;
        let (m, mut baseline) = setup();
        let (_, mut flaky) = setup();
        let mut plan = FaultPlan::none();
        plan.seed = 7;
        plan.disk_transient_ppm = 500_000; // half the blocks are flaky
        flaky.attach_faults(CfsFaults::new(&plan, 7, None));
        let big = 256 * 1024;
        let sb = write_then_reopen(&m, &mut baseline, big);
        let base = baseline.read(&m, sb, 0, big, t0()).unwrap();
        let sf = write_then_reopen(&m, &mut flaky, big);
        let slow = flaky.read(&m, sf, 0, big, t0()).unwrap();
        assert_eq!(slow.bytes, base.bytes);
        assert!(
            slow.completion > base.completion,
            "retries must cost time: {} vs {}",
            slow.completion,
            base.completion
        );
    }

    #[test]
    fn per_request_timeout_fires_on_slow_requests() {
        use charisma_ipsc::faults::FaultPlan;
        use charisma_obs::MetricsRegistry;
        let registry = MetricsRegistry::new();
        let fm = charisma_ipsc::faults::FaultMetrics::register(&registry);
        let (m, mut fs) = setup();
        let mut plan = FaultPlan::none();
        plan.retry.timeout_us = 1_000; // far below a cold multi-block read
        fs.attach_faults(CfsFaults::new(&plan, 5, Some(fm)));
        let s = write_then_reopen(&m, &mut fs, 128 * 1024);
        fs.read(&m, s, 0, 128 * 1024, t0()).unwrap();
        let snap = registry.snapshot();
        assert!(snap.counters["faults.timed_out"] > 0);
    }

    #[test]
    fn create_write_read_round_trip() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "out.dat", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        assert!(o.created);
        let w = fs.write(&m, o.session, 0, 10_000, t0()).unwrap();
        assert_eq!(w.offset, 0);
        assert_eq!(w.bytes, 10_000);
        assert!(w.completion > t0());
        assert_eq!(fs.close(o.session, 0).unwrap(), 10_000);

        let o2 = fs
            .open(2, "out.dat", Access::Read, IoMode::Independent, 3, false)
            .unwrap();
        assert!(!o2.created);
        let r = fs.read(&m, o2.session, 3, 4_000, t0()).unwrap();
        assert_eq!(r.bytes, 4_000);
        assert_eq!(r.offset, 0);
        let r2 = fs.read(&m, o2.session, 3, 100_000, t0()).unwrap();
        assert_eq!(r2.offset, 4_000);
        assert_eq!(r2.bytes, 6_000, "read truncates at EOF");
    }

    #[test]
    fn read_of_missing_file_fails() {
        let (_, mut fs) = setup();
        assert_eq!(
            fs.open(1, "ghost", Access::Read, IoMode::Independent, 0, false),
            Err(CfsError::NoSuchFile)
        );
    }

    #[test]
    fn independent_pointers_are_per_node() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        fs.open(1, "f", Access::Write, IoMode::Independent, 1, false)
            .unwrap();
        fs.write(&m, o.session, 0, 100, t0()).unwrap();
        fs.write(&m, o.session, 0, 100, t0()).unwrap();
        let w = fs.write(&m, o.session, 1, 50, t0()).unwrap();
        assert_eq!(w.offset, 0, "node 1 has its own pointer");
        assert_eq!(fs.tell(o.session, 0).unwrap(), 200);
        assert_eq!(fs.tell(o.session, 1).unwrap(), 50);
    }

    #[test]
    fn shared_pointer_serializes_offsets() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::SharedPointer, 0, false)
            .unwrap();
        fs.open(1, "f", Access::Write, IoMode::SharedPointer, 1, false)
            .unwrap();
        let a = fs.write(&m, o.session, 0, 100, t0()).unwrap();
        let b = fs.write(&m, o.session, 1, 100, t0()).unwrap();
        let c = fs.write(&m, o.session, 0, 100, t0()).unwrap();
        assert_eq!((a.offset, b.offset, c.offset), (0, 100, 200));
    }

    #[test]
    fn round_robin_enforces_turn_order() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::RoundRobin, 0, false)
            .unwrap();
        fs.open(1, "f", Access::Write, IoMode::RoundRobin, 1, false)
            .unwrap();
        fs.write(&m, o.session, 0, 10, t0()).unwrap();
        let err = fs.write(&m, o.session, 0, 10, t0()).unwrap_err();
        assert_eq!(
            err,
            CfsError::OutOfTurn {
                session: o.session,
                node: 0,
                expected: 1
            }
        );
        fs.write(&m, o.session, 1, 10, t0()).unwrap();
        fs.write(&m, o.session, 0, 10, t0()).unwrap();
    }

    #[test]
    fn mode3_pins_request_size() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::RoundRobinFixed, 0, false)
            .unwrap();
        fs.open(1, "f", Access::Write, IoMode::RoundRobinFixed, 1, false)
            .unwrap();
        fs.write(&m, o.session, 0, 512, t0()).unwrap();
        let err = fs.write(&m, o.session, 1, 1024, t0()).unwrap_err();
        assert_eq!(
            err,
            CfsError::SizeMismatch {
                session: o.session,
                expected: 512,
                got: 1024
            }
        );
    }

    #[test]
    fn seek_rejected_on_shared_pointer() {
        let (_, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::SharedPointer, 0, false)
            .unwrap();
        assert_eq!(
            fs.seek(o.session, 0, 100),
            Err(CfsError::SeekOnSharedPointer { session: o.session })
        );
    }

    #[test]
    fn seek_then_read() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::ReadWrite, IoMode::Independent, 0, false)
            .unwrap();
        fs.write(&m, o.session, 0, 20_000, t0()).unwrap();
        fs.seek(o.session, 0, 8_192).unwrap();
        let r = fs.read(&m, o.session, 0, 4_096, t0()).unwrap();
        assert_eq!(r.offset, 8_192);
        assert_eq!(r.bytes, 4_096);
    }

    #[test]
    fn access_control_enforced() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        assert!(matches!(
            fs.read(&m, o.session, 0, 10, t0()),
            Err(CfsError::AccessDenied { .. })
        ));
        fs.write(&m, o.session, 0, 100, t0()).unwrap();
        fs.close(o.session, 0).unwrap();
        let o2 = fs
            .open(1, "f", Access::Read, IoMode::Independent, 0, false)
            .unwrap();
        assert!(matches!(
            fs.write(&m, o2.session, 0, 10, t0()),
            Err(CfsError::AccessDenied { .. })
        ));
    }

    #[test]
    fn closing_last_node_ends_session() {
        let (_, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        fs.open(1, "f", Access::Write, IoMode::Independent, 1, false)
            .unwrap();
        fs.close(o.session, 0).unwrap();
        // Session still live for node 1.
        assert!(fs.tell(o.session, 1).is_ok());
        fs.close(o.session, 1).unwrap();
        assert_eq!(
            fs.tell(o.session, 1),
            Err(CfsError::NotOpen { session: o.session })
        );
        // Re-open starts a fresh session.
        let o2 = fs
            .open(1, "f", Access::Read, IoMode::Independent, 0, false)
            .unwrap();
        assert_ne!(o2.session, o.session);
    }

    #[test]
    fn double_attach_rejected() {
        let (_, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        assert_eq!(
            fs.open(1, "f", Access::Write, IoMode::Independent, 0, false),
            Err(CfsError::AlreadyAttached {
                session: o.session,
                node: 0
            })
        );
    }

    #[test]
    fn capacity_is_enforced() {
        let (m, mut fs) = setup(); // tiny: 2 x 8 MB = 16 MB
        let o = fs
            .open(1, "big", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        // Fill close to capacity in 1 MB writes.
        for _ in 0..16 {
            let r = fs.write(&m, o.session, 0, 1 << 20, t0());
            if r.is_err() {
                assert!(matches!(r, Err(CfsError::NoSpace { .. })));
                return;
            }
        }
        let err = fs.write(&m, o.session, 0, 1 << 20, t0()).unwrap_err();
        assert!(matches!(err, CfsError::NoSpace { .. }));
    }

    #[test]
    fn delete_frees_space_and_cache() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        fs.write(&m, o.session, 0, 1 << 20, t0()).unwrap();
        fs.close(o.session, 0).unwrap();
        let used = fs.used_bytes();
        assert!(used >= 1 << 20);
        let file = o.file;
        fs.delete(file).unwrap();
        assert_eq!(fs.used_bytes(), 0);
        assert_eq!(fs.file_size(file), None);
        assert_eq!(fs.delete(file), Err(CfsError::NoSuchFile));
        // Path can be recreated; gets a fresh id.
        let o2 = fs
            .open(2, "f", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        assert!(o2.created);
        assert_ne!(o2.file, file);
    }

    #[test]
    fn cache_hits_on_rereads() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        fs.write(&m, o.session, 0, 4096, t0()).unwrap();
        fs.close(o.session, 0).unwrap();
        let o2 = fs
            .open(1, "f", Access::Read, IoMode::Independent, 0, false)
            .unwrap();
        let r1 = fs.read(&m, o2.session, 0, 4096, t0()).unwrap();
        assert_eq!(r1.cache_hits, 1, "write left the block in cache");
        fs.seek(o2.session, 0, 0).unwrap();
        let r2 = fs.read(&m, o2.session, 0, 4096, t0()).unwrap();
        assert_eq!(r2.cache_hits, 1);
        assert!(
            r2.completion - t0() < Duration::from_millis(10),
            "cache hit is fast"
        );
    }

    #[test]
    fn large_request_engages_multiple_io_nodes() {
        let (m, mut fs) = setup(); // 2 I/O nodes
        let o = fs
            .open(1, "f", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        let w = fs.write(&m, o.session, 0, 16 * 4096, t0()).unwrap();
        assert_eq!(w.blocks, 16);
        assert_eq!(w.messages, 4, "one request+reply pair per I/O node");
    }

    #[test]
    fn small_requests_cost_nearly_as_much_as_block_requests() {
        // The paper's §4.3 observation about poor small-request performance.
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        fs.write(&m, o.session, 0, 1 << 20, t0()).unwrap();
        fs.close(o.session, 0).unwrap();
        let o2 = fs
            .open(1, "f", Access::Read, IoMode::Independent, 0, false)
            .unwrap();
        // Cold cache for far-apart blocks: compare a 100-byte read and a
        // 4096-byte read, both missing cache.
        fs.seek(o2.session, 0, 100 * 4096).unwrap();
        let small = fs.read(&m, o2.session, 0, 100, t0()).unwrap();
        fs.seek(o2.session, 0, 200 * 4096).unwrap();
        let block = fs.read(&m, o2.session, 0, 4096, t0()).unwrap();
        let small_us = (small.completion - t0()).as_micros() as f64;
        let block_us = (block.completion - t0()).as_micros() as f64;
        assert!(
            block_us / small_us < 1.5,
            "40x the data for <1.5x the time: {small_us} vs {block_us}"
        );
    }

    #[test]
    fn stats_accumulate() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::ReadWrite, IoMode::Independent, 0, false)
            .unwrap();
        fs.write(&m, o.session, 0, 8192, t0()).unwrap();
        fs.seek(o.session, 0, 0).unwrap();
        fs.read(&m, o.session, 0, 8192, t0()).unwrap();
        let s = fs.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.bytes_read, 8192);
        assert_eq!(s.bytes_written, 8192);
        assert!(s.messages >= 4);
        assert_eq!(s.cache_hits, 2, "read hits the written blocks");
    }

    #[test]
    fn attached_metrics_mirror_request_activity() {
        let (m, mut fs) = setup();
        let registry = MetricsRegistry::new();
        fs.attach_metrics(CfsMetrics::register(&registry));
        let o = fs
            .open(1, "f", Access::ReadWrite, IoMode::Independent, 0, false)
            .unwrap();
        fs.write(&m, o.session, 0, 8192, t0()).unwrap();
        fs.seek(o.session, 0, 0).unwrap();
        fs.read(&m, o.session, 0, 8192, t0()).unwrap();
        assert_eq!(registry.snapshot().counters["cfs.read_requests"], 0);
        // Dropped mid-run, session still open: it publishes what it did.
        drop(fs);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["cfs.read_requests"], 1);
        assert_eq!(snap.counters["cfs.write_requests"], 1);
        assert_eq!(snap.counters["cfs.requests.mode0"], 2);
        assert_eq!(snap.counters["cfs.requests.mode1"], 0);
        // The read found both written blocks in cache; the write missed.
        assert_eq!(snap.counters["cfs.cache_hits"], 2);
        assert_eq!(snap.counters["cfs.cache_misses"], 2);
        // Each request engaged both tiny-config I/O nodes.
        assert_eq!(snap.histograms["cfs.stripe_fanout"].count, 2);
        assert_eq!(snap.histograms["cfs.stripe_fanout"].sum, 4);
        // Two write misses went to disk.
        assert_eq!(snap.histograms["cfs.disk_service_us"].count, 2);
        assert!(snap.histograms["cfs.disk_service_us"].sum > 0);
    }

    #[test]
    fn strided_and_collective_requests_are_counted_by_mode() {
        use crate::{CollectiveShare, StridedSpec};
        let (m, mut fs) = setup();
        let registry = MetricsRegistry::new();
        fs.attach_metrics(CfsMetrics::register(&registry));
        let o = fs
            .open(1, "f", Access::ReadWrite, IoMode::Independent, 0, false)
            .unwrap();
        fs.open(1, "f", Access::ReadWrite, IoMode::Independent, 1, false)
            .unwrap();
        let spec = StridedSpec {
            start: 0,
            record_bytes: 512,
            stride: 4096,
            count: 8,
        };
        fs.write_strided(&m, o.session, 0, spec, t0()).unwrap();
        fs.read_strided(&m, o.session, 0, spec, t0()).unwrap();
        let shares = [0u16, 1].map(|node| CollectiveShare {
            node,
            offset: u64::from(node) * 8192,
            bytes: 8192,
        });
        fs.collective_write(&m, o.session, &shares, t0()).unwrap();
        fs.collective_read(&m, o.session, &shares, t0()).unwrap();
        drop(fs);
        let snap = registry.snapshot();
        let by_mode: u64 = (0..4)
            .map(|mode| snap.counters[&format!("cfs.requests.mode{mode}")])
            .sum();
        let (reads, writes) = (
            snap.counters["cfs.read_requests"],
            snap.counters["cfs.write_requests"],
        );
        assert_eq!((reads, writes), (2, 2));
        assert_eq!(by_mode, reads + writes);
        assert_eq!(snap.counters["cfs.requests.mode0"], 4);
    }

    #[test]
    fn truncate_resets_existing_file() {
        let (m, mut fs) = setup();
        let o = fs
            .open(1, "f", Access::Write, IoMode::Independent, 0, false)
            .unwrap();
        fs.write(&m, o.session, 0, 50_000, t0()).unwrap();
        fs.close(o.session, 0).unwrap();
        let o2 = fs
            .open(2, "f", Access::Write, IoMode::Independent, 0, true)
            .unwrap();
        assert!(!o2.created, "truncate is not creation");
        assert_eq!(fs.file_size(o2.file), Some(0));
    }

    /// The request path before grouping: one full rescan of the touch
    /// list per I/O node. The one-pass [`Cfs::serve_block_list`] and the
    /// stripe-by-stripe [`Cfs::access_blocks`] must match it in every
    /// observable effect.
    impl Cfs {
        fn serve_block_list_rescan(
            &mut self,
            machine: &Machine,
            node: u16,
            file: u32,
            touches: &[(u64, u32)],
            now: SimTime,
            is_write: bool,
        ) -> Result<(SimTime, u64, u64, u64), CfsError> {
            let faults = self.faults.clone();
            let now_us = now.as_micros();
            let degrade_ppm = faults.as_ref().map_or(0, |f| f.degrade_ppm());
            let cache_op = Duration::from_micros(self.config.cache_op_us);
            let mut completion = now;
            let mut messages = 0u64;
            let mut blocks = 0u64;
            let mut hits = 0u64;
            let mut fanout = 0u64;
            let io_count = self.config.io_nodes;
            for io in 0..io_count {
                // Stripe failover: a down I/O node's whole block group is
                // redirected to the next live node (cache and disk included).
                let mut serve_io = io;
                if let Some(f) = &faults {
                    if f.io_down(io, now_us) {
                        match f.next_live(io, io_count, now_us) {
                            Some(alt) => serve_io = alt,
                            None => return Err(CfsError::Degraded { io_node: io as u32 }),
                        }
                    }
                }
                let mut io_bytes = 0u64;
                let mut io_done = SimTime::ZERO;
                let mut engaged = false;
                for &(b, touched) in touches {
                    if self.striping.io_node_of(b) != io {
                        continue;
                    }
                    if !engaged {
                        engaged = true;
                        fanout += 1;
                        // Request message reaches the (possibly failover) I/O
                        // node.
                        io_done = now + machine.io_message_latency(node as usize, serve_io, 64);
                        messages += 1;
                        if let Some(f) = &faults {
                            if serve_io != io {
                                f.note_degraded();
                            }
                            if let Some(stall) = f.stall_us(serve_io as u64, file, b) {
                                io_done += Duration::from_micros(stall);
                            }
                        }
                    }
                    blocks += 1;
                    io_bytes += u64::from(touched);
                    if self.caches[serve_io].access((file, b)) {
                        hits += 1;
                        self.stats.cache_hits += 1;
                        io_done += cache_op;
                    } else {
                        self.stats.cache_misses += 1;
                        if is_write {
                            // Write-behind: the client pays only the cache
                            // insertion; the disk absorbs the block later.
                            io_done += cache_op;
                            let busy_before = self.disks[serve_io].busy_us;
                            self.disks[serve_io].serve_degraded(
                                self.config.disk.block_service(BLOCK_BYTES),
                                file,
                                b,
                                io_done,
                                true,
                                degrade_ppm,
                            );
                            self.tally
                                .disk_service_us
                                .record(self.disks[serve_io].busy_us - busy_before);
                        } else {
                            // A flaky block read retries with backoff; past
                            // the budget it is read around from the next
                            // live node.
                            let mut disk_io = serve_io;
                            if let Some(f) = &faults {
                                if let Some(fails) = f.transient_failures(serve_io as u64, file, b)
                                {
                                    let budget = u64::from(f.retry().max_retries);
                                    for attempt in 0..fails.min(budget) {
                                        io_done += Duration::from_micros(f.backoff_us(
                                            file,
                                            b,
                                            attempt as u32,
                                        ));
                                    }
                                    if fails > budget {
                                        match f.next_live(disk_io, io_count, now_us) {
                                            Some(alt) => {
                                                f.note_degraded();
                                                disk_io = alt;
                                            }
                                            None => {
                                                return Err(CfsError::Degraded {
                                                    io_node: disk_io as u32,
                                                })
                                            }
                                        }
                                    }
                                }
                            }
                            let busy_before = self.disks[disk_io].busy_us;
                            io_done = self.disks[disk_io].serve_degraded(
                                self.config.disk.block_service(BLOCK_BYTES),
                                file,
                                b,
                                io_done,
                                false,
                                degrade_ppm,
                            );
                            self.tally
                                .disk_service_us
                                .record(self.disks[disk_io].busy_us - busy_before);
                        }
                    }
                }
                if engaged {
                    // Reply message carries the data (reads) or the ack (writes).
                    let reply_bytes = if is_write { 32 } else { io_bytes.max(32) };
                    let done =
                        io_done + machine.io_message_latency(node as usize, serve_io, reply_bytes);
                    messages += 1;
                    completion = completion.max(done);
                }
            }
            self.stats.messages += messages;
            self.tally.stripe_fanout.record(fanout);
            // Per-request timeout: a request that exceeds the budget pays one
            // extra client-side backoff (the caller's reissue) and is counted.
            if let Some(f) = &faults {
                let timeout = f.retry().timeout_us;
                if timeout > 0 && completion.since(now).as_micros() > timeout {
                    f.note_timeout();
                    completion += Duration::from_micros(f.retry().base_backoff_us);
                }
            }
            Ok((completion, messages, blocks, hits))
        }

        /// The release without resident counts or masks: truncate `file`
        /// to zero and probe every I/O node's cache for every one of its
        /// blocks, in block order. A later `delete` or truncating open
        /// then releases nothing.
        fn release_probing_every_block(&mut self, file: u32) {
            let size = std::mem::take(&mut self.files[file as usize].size);
            let blocks = size.div_ceil(BLOCK_BYTES);
            self.used_bytes -= blocks * BLOCK_BYTES;
            for b in 0..blocks {
                for cache in &mut self.caches {
                    cache.invalidate((file, b));
                }
            }
        }
    }

    /// Open and close `count` files, so file ids `0..count` exist.
    fn create_files(fs: &mut Cfs, count: u32) {
        for f in 0..count {
            let o = fs
                .open(
                    0,
                    &format!("/f{f}"),
                    Access::Write,
                    IoMode::Independent,
                    0,
                    false,
                )
                .unwrap();
            assert_eq!(o.file, f);
            fs.close(o.session, 0).unwrap();
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Faults {
        None,
        Chaos,
        AllDown,
        /// I/O node 3 fails at 3 600 s; node 4 serves its stripes after.
        OneDown,
        /// Three in ten block reads fail transiently, some past the
        /// retry budget.
        Flaky,
    }

    /// A NAS-geometry CFS with small caches (so requests evict), files
    /// 0 to 3, and metrics attached, under one fault setting.
    fn nas_under(faults: Faults) -> (Cfs, MetricsRegistry) {
        use charisma_ipsc::faults::{FaultMetrics, FaultPlan, IoNodeDown};
        let registry = MetricsRegistry::new();
        let mut fs = Cfs::new(CfsConfig {
            cache_blocks_per_io_node: 24,
            ..CfsConfig::nas()
        });
        fs.attach_metrics(CfsMetrics::register(&registry));
        create_files(&mut fs, 4);
        let plan = match faults {
            Faults::None => return (fs, registry),
            Faults::Chaos => FaultPlan::chaos_fixture(),
            Faults::AllDown => {
                let mut plan = FaultPlan::none();
                for io_node in 0..10 {
                    plan.io_node_down.push(IoNodeDown { io_node, at_us: 0 });
                }
                plan
            }
            Faults::OneDown => {
                let mut plan = FaultPlan::none();
                plan.io_node_down.push(IoNodeDown {
                    io_node: 3,
                    at_us: 3_600_000_000,
                });
                plan
            }
            Faults::Flaky => {
                let mut plan = FaultPlan::none();
                plan.seed = 11;
                plan.disk_transient_ppm = 300_000;
                plan
            }
        };
        let fm = FaultMetrics::register(&registry);
        fs.attach_faults(CfsFaults::new(&plan, 42, Some(fm)));
        (fs, registry)
    }

    /// A random touch list: contiguous (`kind` 0), strided (1), or
    /// collective-merged shares with blocks repeated after the merge (2).
    fn touch_list(rng: &mut rand::rngs::StdRng, kind: usize) -> Vec<(u64, u32)> {
        use rand::Rng;
        let push = |touches: &mut Vec<(u64, u32)>, offset: u64, len: u64| {
            for b in Striping::cfs(10).blocks_of_request(offset, len) {
                touches.push((b, block_overlap(offset, len, b)));
            }
        };
        let mut touches = Vec::new();
        match kind {
            0 => push(
                &mut touches,
                rng.gen_range(0..400 * BLOCK_BYTES),
                rng.gen_range(1..64 * BLOCK_BYTES),
            ),
            1 => {
                let record = rng.gen_range(1..6_000u64);
                let stride = record + rng.gen_range(0..20_000u64);
                let mut offset = rng.gen_range(0..100 * BLOCK_BYTES);
                for _ in 0..rng.gen_range(1..40) {
                    let mut segment = Vec::new();
                    push(&mut segment, offset, record);
                    for (b, t) in segment {
                        match touches.last_mut() {
                            Some((lb, lt)) if *lb == b => *lt += t,
                            _ => touches.push((b, t)),
                        }
                    }
                    offset += stride;
                }
            }
            _ => {
                let base = rng.gen_range(0..200 * BLOCK_BYTES);
                for _ in 0..rng.gen_range(2..9) {
                    let offset = base + rng.gen_range(0..60 * BLOCK_BYTES);
                    push(&mut touches, offset, rng.gen_range(1..20_000));
                }
                touches.sort_by_key(|&(b, _)| b);
                let mut merged: Vec<(u64, u32)> = Vec::new();
                for (b, t) in touches {
                    match merged.last_mut() {
                        Some((lb, lt)) if *lb == b => *lt += t,
                        _ => merged.push((b, t)),
                    }
                }
                for _ in 0..rng.gen_range(0..5) {
                    let again = merged[rng.gen_range(0..merged.len())];
                    merged.push(again);
                }
                touches = merged;
            }
        }
        touches
    }

    /// A request time that straddles the 3 600 s node failures of the
    /// chaos fixture and of [`Faults::OneDown`].
    fn straddling_now(rng: &mut rand::rngs::StdRng) -> SimTime {
        use rand::Rng;
        SimTime::from_micros(rng.gen_range(3_500..3_700u64) * 1_000_000)
    }

    /// Two file systems driven through the same requests agree on their
    /// stats, their disks, which of the `seen` blocks each cache holds,
    /// and, once both are dropped, every metric they publish.
    fn assert_same_state(
        (fast, fast_metrics): (Cfs, MetricsRegistry),
        (slow, slow_metrics): (Cfs, MetricsRegistry),
        seen: &std::collections::BTreeSet<BlockKey>,
        ctx: &str,
    ) {
        assert_eq!(fast.stats(), slow.stats(), "{ctx}");
        for io in 0..10 {
            assert_eq!(
                format!("{:?}", fast.disk(io)),
                format!("{:?}", slow.disk(io)),
                "{ctx} disk {io}"
            );
            for &key in seen {
                assert_eq!(
                    fast.caches[io].contains(key),
                    slow.caches[io].contains(key),
                    "{ctx} cache {io} block {key:?}"
                );
            }
        }
        // Both publish their tallies when they drop; fault counters
        // were published as the faults fired.
        assert_eq!(fast_metrics.snapshot().counters["cfs.cache_misses"], 0);
        drop((fast, slow));
        assert_eq!(fast_metrics.snapshot(), slow_metrics.snapshot(), "{ctx}");
    }

    #[test]
    fn one_pass_request_path_matches_the_per_node_rescan() {
        use rand::{Rng, SeedableRng};
        let machine = Machine::boot_synchronized(MachineConfig::nas_ipsc860());
        for faults in [Faults::None, Faults::Chaos, Faults::AllDown] {
            for kind in 0..3 {
                let (mut fast, fast_metrics) = nas_under(faults);
                let (mut slow, slow_metrics) = nas_under(faults);
                let mut rng = rand::rngs::StdRng::seed_from_u64(kind as u64 + 17);
                let mut seen = std::collections::BTreeSet::new();
                for request in 0..300 {
                    let touches = touch_list(&mut rng, kind);
                    let file = rng.gen_range(0..4u32);
                    let node = rng.gen_range(0..128u16);
                    let is_write = rng.gen_range(0..3) == 0;
                    let now = straddling_now(&mut rng);
                    seen.extend(touches.iter().map(|&(b, _)| (file, b)));
                    let got = fast.serve_block_list(&machine, node, file, &touches, now, is_write);
                    let want =
                        slow.serve_block_list_rescan(&machine, node, file, &touches, now, is_write);
                    assert_eq!(got, want, "{faults:?} kind {kind} request {request}");
                }
                let lookups = fast.stats().cache_hits + fast.stats().cache_misses;
                let served = !matches!(faults, Faults::AllDown);
                let ctx = format!("{faults:?} kind {kind}");
                assert_eq!(lookups > 0, served, "{ctx}");
                assert_same_state((fast, fast_metrics), (slow, slow_metrics), &seen, &ctx);
            }
        }
        // Contiguous requests are served stripe by stripe, without a
        // touch list: from offsets 0, 1 and 4095 within a block, over 0
        // to 3n+1 blocks (plus one byte), each against the rescan of its
        // block list. A zero-byte request takes the same round trip to
        // node 0 on both sides.
        let n = 10;
        for faults in [Faults::None, Faults::OneDown, Faults::Flaky] {
            let (mut fast, fast_metrics) = nas_under(faults);
            let (mut slow, slow_metrics) = nas_under(faults);
            let mut rng = rand::rngs::StdRng::seed_from_u64(29);
            let mut seen = std::collections::BTreeSet::new();
            for within in [0, 1, BLOCK_BYTES - 1] {
                for whole in 0..=3 * n + 1 {
                    for (extra, is_write) in [(0, true), (0, false), (1, false), (1, true)] {
                        let offset = rng.gen_range(0..200u64) * BLOCK_BYTES + within;
                        let len = whole * BLOCK_BYTES + extra;
                        let file = rng.gen_range(0..4u32);
                        let node = rng.gen_range(0..128u16);
                        let now = straddling_now(&mut rng);
                        let range = Striping::cfs(10).blocks_of_request(offset, len);
                        let touches: Vec<(u64, u32)> =
                            range.map(|b| (b, block_overlap(offset, len, b))).collect();
                        seen.extend(touches.iter().map(|&(b, _)| (file, b)));
                        let got =
                            fast.access_blocks(&machine, node, file, offset, len, now, is_write);
                        let want = if touches.is_empty() {
                            slow.access_blocks(&machine, node, file, offset, len, now, is_write)
                        } else {
                            slow.serve_block_list_rescan(
                                &machine, node, file, &touches, now, is_write,
                            )
                        };
                        let ctx = format!("{faults:?} {offset}+{len} write {is_write}");
                        assert_eq!(got, want, "{ctx}");
                        assert_eq!(
                            got.map(|(_, _, blocks, _)| blocks),
                            Ok(touches.len() as u64)
                        );
                        assert_eq!(fast.stats(), slow.stats(), "{ctx}");
                    }
                }
            }
            let counters = fast_metrics.snapshot().counters;
            let degraded = counters.get("faults.degraded").copied().unwrap_or(0);
            let ctx = format!("{faults:?} contiguous");
            assert_eq!(degraded > 0, !matches!(faults, Faults::None), "{ctx}");
            assert_same_state((fast, fast_metrics), (slow, slow_metrics), &seen, &ctx);
        }
    }

    /// Under random writes, reads, truncating opens, deletes and cache
    /// drops, with and without a failover, releases guided by the
    /// resident counts leave every cache as a release that probes every
    /// block does, and the counts always sum to the blocks cached.
    #[test]
    fn resident_counts_release_what_probing_every_block_releases() {
        use rand::{Rng, SeedableRng};
        let machine = Machine::boot_synchronized(MachineConfig::nas_ipsc860());
        let paths = ["/a", "/b", "/c", "/d", "/e", "/f"];
        for faults in [Faults::None, Faults::OneDown] {
            let (mut fast, _) = nas_under(faults);
            let (mut slow, _) = nas_under(faults);
            let mut rng = rand::rngs::StdRng::seed_from_u64(5);
            let mut dropped = 0;
            for step in 0..400 {
                let path = paths[rng.gen_range(0..paths.len())];
                let node = rng.gen_range(0..128u16);
                // Some files stay within two blocks; most outgrow their
                // share of the 24-block caches, so blocks are evicted.
                let (last_block, most_blocks) = [(1, 1), (120, 40)][rng.gen_range(0..2usize)];
                let offset = rng.gen_range(0..last_block * BLOCK_BYTES);
                let bytes = rng.gen_range(0..most_blocks * BLOCK_BYTES) as u32;
                let now = straddling_now(&mut rng);
                let existing = fast.lookup(path);
                assert_eq!(existing, slow.lookup(path));
                let op = rng.gen_range(0..24);
                match (op, existing) {
                    (0..=11, _) | (12..=17, None) => {
                        for fs in [&mut fast, &mut slow] {
                            let o = fs
                                .open(1, path, Access::Write, IoMode::Independent, node, false)
                                .unwrap();
                            fs.seek(o.session, node, offset).unwrap();
                            fs.write(&machine, o.session, node, bytes, now).unwrap();
                            fs.close(o.session, node).unwrap();
                        }
                    }
                    (12..=17, Some(_)) => {
                        let reads: Vec<_> = [&mut fast, &mut slow]
                            .into_iter()
                            .map(|fs| {
                                let o = fs
                                    .open(1, path, Access::Read, IoMode::Independent, node, false)
                                    .unwrap();
                                fs.seek(o.session, node, offset).unwrap();
                                let read = fs.read(&machine, o.session, node, bytes, now);
                                fs.close(o.session, node).unwrap();
                                read
                            })
                            .collect();
                        assert_eq!(reads[0], reads[1], "step {step}");
                    }
                    (18 | 19, Some(file)) => {
                        slow.release_probing_every_block(file);
                        for fs in [&mut fast, &mut slow] {
                            let o = fs
                                .open(1, path, Access::Write, IoMode::Independent, node, true)
                                .unwrap();
                            fs.close(o.session, node).unwrap();
                        }
                    }
                    (20, Some(file)) => {
                        fast.delete(file).unwrap();
                        slow.release_probing_every_block(file);
                        slow.delete(file).unwrap();
                    }
                    // Dropped half as often as the other ops run.
                    (21, _) if step % 2 == 0 => {
                        fast.drop_caches();
                        slow.drop_caches();
                        dropped += 1;
                        assert!(fast.files.iter().all(|f| f.resident == 0));
                    }
                    _ => continue,
                }
                let ctx = format!("{faults:?} step {step} op {op}");
                assert_eq!(fast.stats(), slow.stats(), "{ctx}");
                assert_eq!(fast.used_bytes(), slow.used_bytes(), "{ctx}");
                let resident: u64 = fast.files.iter().map(|f| u64::from(f.resident)).sum();
                let cached: usize = fast.caches.iter().map(LruCache::len).sum();
                assert_eq!(resident, cached as u64, "{ctx}");
                for file in 0..fast.files.len() as u32 {
                    for b in 0..120 + 41 {
                        for io in 0..10 {
                            let key = (file, b);
                            assert_eq!(
                                fast.caches[io].contains(key),
                                slow.caches[io].contains(key),
                                "{ctx} cache {io} block {key:?}"
                            );
                        }
                    }
                }
            }
            assert!(dropped > 0, "{faults:?}: the caches were dropped");
        }
    }

    /// A block that a failover cached away from its home node leaves
    /// that cache on a truncating open, on a delete and on a cache drop.
    #[test]
    fn a_release_drops_blocks_cached_off_their_home_node() {
        assert_eq!(std::mem::size_of::<FileMeta>(), 16);
        let machine = Machine::boot_synchronized(MachineConfig::nas_ipsc860());
        let (mut fs, _) = nas_under(Faults::OneDown);
        // Node 3 is down at 3 650 s, so node 4 caches block 3.
        let write_ten_blocks = |fs: &mut Cfs| {
            let o = fs
                .open(1, "/f0", Access::Write, IoMode::Independent, 0, false)
                .unwrap();
            let ten_blocks = 10 * BLOCK_BYTES as u32;
            let now = SimTime::from_secs(3_650);
            fs.write(&machine, o.session, 0, ten_blocks, now).unwrap();
            fs.close(o.session, 0).unwrap();
            assert!(fs.caches[4].contains((o.file, 3)));
            o.file
        };
        let nothing_cached = |fs: &Cfs, file: u32| {
            let meta = &fs.files[file as usize];
            assert_eq!((meta.resident, meta.off_home), (0, 0));
            for cache in &fs.caches {
                assert!((0..10).all(|b| !cache.contains((file, b))));
            }
        };
        let file = write_ten_blocks(&mut fs);
        let o = fs
            .open(1, "/f0", Access::Write, IoMode::Independent, 0, true)
            .unwrap();
        fs.close(o.session, 0).unwrap();
        nothing_cached(&fs, file);
        assert_eq!(write_ten_blocks(&mut fs), file);
        fs.delete(file).unwrap();
        nothing_cached(&fs, file);
        let file = write_ten_blocks(&mut fs);
        fs.drop_caches();
        nothing_cached(&fs, file);
    }

    #[test]
    fn all_nodes_down_reports_node_zero_even_when_it_is_untouched() {
        let machine = Machine::boot_synchronized(MachineConfig::nas_ipsc860());
        let (mut fs, _) = nas_under(Faults::AllDown);
        let node3_only = [(3, 4096), (13, 4096), (23, 100)];
        for is_write in [false, true] {
            let err = fs
                .serve_block_list(&machine, 0, 1, &node3_only, t0(), is_write)
                .unwrap_err();
            assert_eq!(err, CfsError::Degraded { io_node: 0 });
        }
    }

    #[test]
    fn disk_samples_before_a_mid_request_degraded_read_are_kept() {
        use charisma_ipsc::faults::{FaultPlan, IoNodeDown};
        // Node 1 is down, so node 0 serves both groups; with no retries, a
        // flaky block has nowhere to be read around and fails the request.
        let mut plan = FaultPlan::none();
        plan.io_node_down.push(IoNodeDown {
            io_node: 1,
            at_us: 0,
        });
        plan.disk_transient_ppm = 500_000;
        plan.retry.max_retries = 0;
        let faults = CfsFaults::new(&plan, 3, None);
        let touches: Vec<(u64, u32)> = (0..32).map(|b| (b, 4096)).collect();
        // Group order: node 0's even blocks, then node 1's odd blocks.
        let group_order = (0..32).step_by(2).chain((1..32).step_by(2));
        let clean_before_flaky = |file: u32| {
            group_order
                .clone()
                .take_while(|&b| faults.transient_failures(0, file, b).is_none())
                .count() as u64
        };
        let file = (0..64)
            .find(|&f| (1..32).contains(&clean_before_flaky(f)))
            .expect("some file has a clean block before its first flaky one");

        let (m, mut fs) = setup();
        create_files(&mut fs, 64);
        let registry = MetricsRegistry::new();
        fs.attach_metrics(CfsMetrics::register(&registry));
        fs.attach_faults(faults.clone());
        let err = fs
            .serve_block_list(&m, 0, file, &touches, t0(), false)
            .unwrap_err();
        assert_eq!(err, CfsError::Degraded { io_node: 0 });
        drop(fs);
        let service = &registry.snapshot().histograms["cfs.disk_service_us"];
        assert_eq!(service.count, clean_before_flaky(file));
        assert!(service.sum > 0);
    }

    #[test]
    fn block_overlap_math() {
        assert_eq!(block_overlap(0, 4096, 0), 4096);
        assert_eq!(block_overlap(0, 100, 0), 100);
        assert_eq!(block_overlap(4000, 200, 0), 96);
        assert_eq!(block_overlap(4000, 200, 1), 104);
        assert_eq!(block_overlap(0, 100, 1), 0);
        assert_eq!(block_overlap(8192, 4096, 2), 4096);
    }
}
