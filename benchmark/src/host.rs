//! The host-speed probe every end-to-end time is scaled by.
//!
//! The benchmark runs on shared hosts, where the speed of memory-bound
//! code swings by 20–30% within a second as other guests load the same
//! memory system, and by more over longer spans. No wall-clock number
//! can resolve a regression smaller than that swing, so an untraced run
//! times a fixed probe around each set-up, and before an operation
//! whenever [`INTERVAL`] has passed since the last one — a sort and a
//! scattered counting pass over a few megabytes, the benchmark's own
//! code, never the system's — and scales each time by how much longer or
//! shorter than [`REFERENCE_MS`] the probes took. A change to the system moves
//! its operations and not the probe, so it moves the scaled times by its
//! full amount; a slow spell on the host moves both, and cancels out.
//!
//! A disabled [`Host`] never probes and scales nothing: traced runs
//! report raw per-layer times. [`settle_process`] keeps the rest of the
//! host out of the numbers: one CPU, one allocator arena.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe time, ms, of the host every scaled time is expressed for: close
/// to the probe's median on the machine `README.md`'s numbers come from,
/// so scaled times read like that machine's wall-clock times.
pub const REFERENCE_MS: f64 = 12.5;

/// Least time between two probes during a timed phase. The host's speed
/// moves by about 10% over 100 ms, and a probe takes about 12 ms.
pub const INTERVAL: Duration = Duration::from_millis(100);

/// Keys sorted by one probe: 2 MiB.
const KEYS: usize = 1 << 18;
/// Counters the probe scatters into: 4 MiB.
const COUNTERS: usize = 1 << 20;

/// The probe and its latest reading.
#[derive(Debug)]
pub struct Host {
    enabled: bool,
    keys: Vec<u64>,
    counters: Vec<u32>,
    round: u64,
    /// The latest probe time, ms.
    last_ms: f64,
    /// When the latest probe ended.
    last_at: Instant,
    /// Every probe time, ms.
    probes_ms: Vec<f64>,
}

impl Host {
    /// A probing host (`true`), which probes once now, or one that
    /// scales nothing (`false`).
    pub fn new(enabled: bool) -> Self {
        let mut host = Host {
            enabled,
            keys: Vec::new(),
            counters: Vec::new(),
            round: 0,
            last_ms: REFERENCE_MS,
            last_at: Instant::now(),
            probes_ms: Vec::new(),
        };
        if enabled {
            host.keys = vec![0; KEYS];
            host.counters = vec![0; COUNTERS];
            host.probe();
        }
        host
    }

    /// Run the probe now.
    pub fn probe(&mut self) {
        if !self.enabled {
            return;
        }
        self.round += 1;
        let started = Instant::now();
        let round = self.round << 32;
        for (i, key) in self.keys.iter_mut().enumerate() {
            *key = mix(round ^ i as u64);
        }
        self.keys.sort_unstable();
        for key in &self.keys {
            // The index is the low bits of a 64-bit hash, so the cast
            // keeps exactly the bits the mask needs.
            self.counters[mix(*key) as usize & (COUNTERS - 1)] += 1;
        }
        black_box((&self.keys, &self.counters));
        self.last_at = Instant::now();
        self.last_ms = (self.last_at - started).as_secs_f64() * 1e3;
        self.probes_ms.push(self.last_ms);
    }

    /// Probe if [`INTERVAL`] has passed since the last probe. Call it
    /// before an operation is timed, never inside one.
    pub fn tick(&mut self) {
        if self.enabled && self.last_at.elapsed() >= INTERVAL {
            self.probe();
        }
    }

    /// `raw`, a time measured since the last probe, scaled to the
    /// reference host. Unchanged when disabled.
    pub fn scale(&self, raw: f64) -> f64 {
        raw * REFERENCE_MS / self.last_ms
    }

    /// `raw`, a time measured since the last probe over which the host's
    /// speed may have moved (a whole set-up), scaled by the mean of that
    /// probe and one run now. Unchanged when disabled.
    pub fn scale_through(&mut self, raw: f64) -> f64 {
        if !self.enabled {
            return raw;
        }
        let before = self.last_ms;
        self.probe();
        raw * REFERENCE_MS / ((before + self.last_ms) / 2.0)
    }

    /// Milliseconds since `t`, scaled.
    pub fn ms_since(&self, t: Instant) -> f64 {
        self.scale(t.elapsed().as_secs_f64() * 1e3)
    }

    /// Every probe time so far, ms.
    pub fn probes_ms(&self) -> &[f64] {
        &self.probes_ms
    }
}

/// Settle this process before any thread starts: run it on the one CPU
/// it is on now, and make every thread allocate from glibc's main arena.
///
/// The system spawns a worker thread for every scan, even with one
/// worker. Left free, that thread may wake on the other vCPU, and the
/// query then also waits for whatever the hypervisor is doing there,
/// which the probe, running on this CPU, cannot see: pinned, selective
/// queries ran 20% faster. With an arena per thread, how much freed
/// memory each arena keeps depends on which arena a scan's worker
/// happened to get: one workload's peak set size swung from 104 to
/// 175 MB between runs, and stays within 0.5% with one arena.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn settle_process() {
    use std::ffi::c_int;
    // glibc's <malloc.h>: #define M_ARENA_MAX -8
    const M_ARENA_MAX: c_int = -8;
    // glibc's cpu_set_t: 1024 bits.
    const CPU_SET_WORDS: usize = 1024 / 64;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
        fn sched_getcpu() -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    }
    // SAFETY: `mallopt` takes two plain integers and only sets the
    // allocator's own state, under its lock; M_ARENA_MAX is a parameter
    // every glibc since 2.10 accepts. `sched_getcpu` takes nothing. A
    // failure of either (0 from `mallopt`, -1 from `sched_getcpu`) leaves
    // the defaults: only steadiness is lost.
    let cpu = unsafe {
        mallopt(M_ARENA_MAX, 1);
        sched_getcpu()
    };
    let Ok(cpu) = usize::try_from(cpu) else {
        return;
    };
    if cpu >= CPU_SET_WORDS * 64 {
        return;
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised cpu_set_t-sized buffer, and
    // `size` is its exact length in bytes, so the kernel reads only
    // within it; pid 0 is this thread, the only one yet. Failure (-1)
    // leaves the process free to run anywhere.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

/// Other platforms keep their scheduler's and allocator's defaults.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn settle_process() {}

/// SplitMix64's output function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_host_scales_nothing_and_an_enabled_one_scales_by_its_probe() {
        let mut off = Host::new(false);
        off.tick();
        off.probe();
        assert!(off.probes_ms().is_empty());
        assert_eq!(off.scale(3.5), 3.5);

        let mut on = Host::new(true);
        on.probe();
        assert_eq!(on.probes_ms().len(), 2);
        let last = on.probes_ms()[1];
        assert!(last > 0.0);
        assert!((on.scale(last) - REFERENCE_MS).abs() < 1e-9);
        let scaled = on.scale_through(2.0);
        let [.., before, after] = on.probes_ms()[..] else {
            panic!("scale_through probes once more")
        };
        assert!((scaled - 2.0 * REFERENCE_MS * 2.0 / (before + after)).abs() < 1e-9);
        assert_eq!(off.scale_through(2.0), 2.0);
    }
}
