//! The deterministic parallel executor behind the dse sweep and the model
//! grid.
//!
//! Items are claimed from a shared atomic cursor by scoped worker threads
//! (whichever worker is free takes the next item, so heterogeneous item
//! costs balance automatically). Each worker keeps `(index, result)` pairs
//! locally; they are moved into input-order slots as workers finish. Callers seed
//! every item's RNG from the item's own label, so the output is
//! byte-identical across runs and thread counts.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count a `threads` setting asks for: the setting itself, or
/// one per available core when it is 0.
pub fn effective_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Maps `f` over `items` on up to `threads` workers and returns the
/// results in input order. One thread (or fewer than two items) runs
/// inline on the caller's thread.
pub fn par_map_ordered<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        for worker in workers {
            for (i, r) in worker.join().expect("parallel map worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item mapped exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map_ordered(&items, 1, |x| x * x);
        for threads in [2, 3, 8, 1000] {
            assert_eq!(par_map_ordered(&items, threads, |x| x * x), serial);
        }
        assert!(par_map_ordered(&[] as &[u64], 4, |x| *x).is_empty());
    }
}
