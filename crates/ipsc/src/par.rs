//! Deterministic fan-out over scoped worker threads.
//!
//! Workers claim items off an atomic cursor under [`std::thread::scope`],
//! so the schedule is free, yet [`claim_each`] returns the outputs in item
//! order. Anything computed from them — including which error wins when
//! several items fail — is the same for every worker count. This is the
//! workspace's one sanctioned concurrency pattern: no lock, no channel, no
//! detached thread (rule CH007).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Apply `task` to every `(index, item)` of `items` on up to `workers`
/// scoped threads (0 is treated as 1) and return the outputs in item
/// order. One worker runs the loop inline on the calling thread, spawning
/// nothing. A worker's panic is re-raised on the calling thread.
pub fn claim_each<I, T, F>(items: &[I], workers: usize, task: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| task(i, item))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, task(i, item)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_in_item_order_for_every_worker_count() {
        let items: Vec<u64> = (0..48).collect();
        let square = |i: usize, &x: &u64| (i, x * x);
        let serial = claim_each(&items, 1, square);
        for workers in [0, 3, 8, 200] {
            assert_eq!(claim_each(&items, workers, square), serial);
        }
        // A two-party barrier in every task makes the two workers take
        // turns, so each claims every other item and neither worker's
        // outputs alone are in item order.
        let turns = std::sync::Barrier::new(2);
        let interleaved = claim_each(&items, 2, |i, x| {
            turns.wait();
            square(i, x)
        });
        assert_eq!(interleaved, serial);
        assert!(claim_each(&[] as &[u8], 4, |_, &x| x).is_empty());
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let items = [1u8, 2, 3, 4];
        let caught = std::panic::catch_unwind(|| {
            claim_each(&items, 2, |_, &x| {
                assert_ne!(x, 3, "item three fails");
                x
            })
        });
        assert!(caught.is_err());
    }
}
