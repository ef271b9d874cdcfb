//! Data-parallel helpers built on scoped threads.
//!
//! The federated-learning runner trains the selected clients of a round in
//! parallel, evaluates batches in parallel, folds aggregation shards in
//! parallel and runs whole sessions of a sweep in parallel; all four go
//! through [`parallel_map`]. Its items are independent but far from equally
//! expensive (Dirichlet-skewed client shards, grid cells of different
//! algorithms), so the workers *pull* work: every worker takes the next
//! unclaimed item off one shared cursor until none is left, and no core waits
//! behind a statically assigned slice while another has run out. The calling
//! thread is one of the workers, so `threads` workers cost `threads - 1`
//! spawns and the caller's warm thread-local state (matmul pack buffer,
//! allocator arena) is used rather than parked.
//!
//! What is computed never depends on the schedule: an item is claimed by
//! exactly one worker, `f` sees nothing but that item, and its result is
//! stored under the item's input index — so the output is the sequential
//! map's for any thread count and any finishing order. The number of worker
//! threads adapts to the machine (`available_parallelism`) and can be capped
//! explicitly.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: the machine's available
/// parallelism, but never zero.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Apply `f` to every item of `items`, possibly in parallel, returning the
/// outputs in input order.
///
/// Up to `max_threads` workers — the calling thread and `max_threads - 1`
/// scoped threads, never more than there are items — each claim the next
/// unclaimed index from a shared cursor, run `f` on that item and store the
/// result in the slot of the same index, until the cursor runs past the end.
/// Items are therefore *started* in input order (put the expensive ones
/// first), each runs exactly once, and which worker ran it or when it
/// finished leaves no trace in the output.
///
/// `max_threads <= 1` (or a single item) degrades to a plain sequential map,
/// so results are identical regardless of thread count — important because
/// experiment reproducibility must not depend on the host's core count.
///
/// A panic inside `f` reaches the caller with its original payload, after
/// every other worker has drained the remaining items and been joined.
pub fn parallel_map<T, U, F>(items: Vec<T>, max_threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = max_threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    // One slot per index holds the input until it is claimed, another the
    // output once it is computed. The cursor hands every index to exactly one
    // worker, so a slot's lock is never contended; it is there to move `T` out
    // and `U` in through a shared reference without `unsafe`. The cursor
    // itself publishes no data (the slots' locks and the scope's join do), so
    // `Relaxed` is enough for it.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let worker = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // No lock is held while `f` runs, so a panicking item poisons nothing.
        let item = inputs[i]
            .lock()
            .expect("no worker panics holding a slot lock")
            .take()
            .expect("the cursor hands out every index once");
        let out = f(item);
        *outputs[i]
            .lock()
            .expect("no worker panics holding a slot lock") = Some(out);
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        worker();
        for handle in spawned {
            if let Err(payload) = handle.join() {
                // The scope still joins the remaining workers before this
                // leaves it.
                std::panic::resume_unwind(payload);
            }
        }
    });

    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics holding a slot lock")
                .expect("every index was claimed and completed")
        })
        .collect()
}

/// Evaluate `f(start, end)` over fixed-size shards `[0, s)`, `[s, 2s)`, …
/// covering `0..len`, possibly in parallel, and return the per-shard results
/// **in shard order**.
///
/// The shard boundaries depend only on `shard_size` — never on the thread
/// count or on which worker picks a shard up — so a reduction that folds
/// within each shard and then merges the returned partials left to right
/// produces bit-identical results on any machine. This is the primitive the
/// round engine's sharded aggregation tree is built on: floating-point
/// accumulation is non-associative, so determinism requires the *reduction
/// shape*, not just the item order, to be fixed.
///
/// `len == 0` returns an empty vector. Panics if `shard_size == 0`.
pub fn parallel_fixed_shards<A, F>(
    len: usize,
    shard_size: usize,
    max_threads: usize,
    f: F,
) -> Vec<A>
where
    A: Send,
    F: Fn(usize, usize) -> A + Sync,
{
    assert!(shard_size > 0, "shard_size must be positive");
    let bounds: Vec<(usize, usize)> = (0..len.div_ceil(shard_size))
        .map(|s| (s * shard_size, ((s + 1) * shard_size).min(len)))
        .collect();
    parallel_map(bounds, max_threads, |(start, end)| f(start, end))
}

/// Split a row-major buffer into contiguous blocks of whole rows and run
/// `f(first_row, block)` on each, possibly in parallel.
///
/// The blocks are disjoint `&mut` views, so this is the primitive for
/// writing independent output rows (matmul) without interior mutability.
/// Block boundaries depend only on `max_threads` through *which* rows land
/// together — never on what `f` computes per row — so any kernel whose rows
/// are independent is bit-identical for every thread count. The blocks are
/// equal-sized, so they are assigned rather than pulled: the calling thread
/// computes the first and up to `max_threads - 1` scoped threads the rest.
///
/// `data.len()` must be a multiple of `row_len`. Panics if `row_len == 0`
/// (unless `data` is empty, which is a no-op).
pub fn parallel_row_blocks<T, F>(data: &mut [T], row_len: usize, max_threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(
        data.len() % row_len,
        0,
        "buffer length must be a whole number of rows"
    );
    let rows = data.len() / row_len;
    let threads = max_threads.max(1).min(rows);
    if threads <= 1 {
        f(0, data);
        return;
    }
    let block_rows = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let mut blocks = data.chunks_mut(block_rows * row_len).enumerate();
        // The calling thread computes the first block instead of waiting for
        // a spawned one.
        let first = blocks.next();
        for (b, chunk) in blocks {
            scope.spawn(move || f(b * block_rows, chunk));
        }
        if let Some((_, chunk)) = first {
            f(0, chunk);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};
    use std::time::{Duration, Instant};

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(items.clone(), 4, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_sequential_equals_parallel() {
        let items: Vec<usize> = (0..57).collect();
        let seq = parallel_map(items.clone(), 1, |x| x * x + 1);
        let par = parallel_map(items, 8, |x| x * x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn map_empty_and_single() {
        let empty: Vec<usize> = vec![];
        assert!(parallel_map(empty, 4, |x| x).is_empty());
        assert_eq!(parallel_map(vec![7], 4, |x| x + 1), vec![8]);
    }

    /// Item 0 does not return until every other item has: with two or more
    /// workers the rest of the input has to drain past the worker stuck on
    /// it. A static split would leave item 0's chunk-mates waiting behind it
    /// forever, which is what the deadline turns into a failure.
    #[test]
    fn map_uneven_items_run_once_and_land_at_their_index() {
        for threads in [1, 2, 3, 8] {
            for n in [1usize, 2, 5, 40] {
                let workers = threads.min(n);
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let others_done = AtomicUsize::new(0);
                let seen = Mutex::new(HashSet::<ThreadId>::new());
                let out = parallel_map((0..n).collect(), threads, |i: usize| {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    seen.lock().unwrap().insert(thread::current().id());
                    if i > 0 {
                        others_done.fetch_add(1, Ordering::SeqCst);
                    } else if workers >= 2 {
                        let deadline = Instant::now() + Duration::from_secs(20);
                        while others_done.load(Ordering::SeqCst) < n - 1 {
                            assert!(
                                Instant::now() < deadline,
                                "items queued behind a busy worker (threads {threads}, n {n})"
                            );
                            thread::yield_now();
                        }
                    }
                    i * 10 + 1
                });
                let expected: Vec<usize> = (0..n).map(|i| i * 10 + 1).collect();
                assert_eq!(out, expected, "threads {threads}, n {n}");
                assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
                assert!(seen.lock().unwrap().len() <= workers);
            }
        }
    }

    /// `threads` items that all wait for each other need `threads` distinct
    /// workers; only `threads - 1` are spawned, so the caller is the last.
    #[test]
    fn map_runs_items_on_the_calling_thread_too() {
        for threads in [2usize, 3] {
            let barrier = Barrier::new(threads);
            let ids = parallel_map((0..threads).collect(), threads, |_: usize| {
                barrier.wait();
                thread::current().id()
            });
            let distinct: HashSet<ThreadId> = ids.iter().copied().collect();
            assert_eq!(distinct.len(), threads);
            assert!(distinct.contains(&thread::current().id()));
        }
    }

    /// Items 0 and 1 meet at a barrier, so one is on the calling thread and
    /// one on the spawned worker; `on_caller` picks which of the two panics.
    fn map_panic_reaches_caller(on_caller: bool) {
        let caller = thread::current().id();
        let barrier = Barrier::new(2);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map((0..10).collect(), 2, |i: usize| {
                if i < 2 {
                    barrier.wait();
                    if (thread::current().id() == caller) == on_caller {
                        panic!("item failed");
                    }
                }
                completed.fetch_add(1, Ordering::SeqCst);
                i
            })
        }));
        let payload = result.expect_err("the item's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item failed"));
        // The surviving worker was joined first: it has drained everything.
        assert_eq!(completed.load(Ordering::SeqCst), 9);
    }

    #[test]
    fn map_panic_on_spawned_worker_reaches_caller_after_join() {
        map_panic_reaches_caller(false);
    }

    #[test]
    fn map_panic_on_calling_thread_waits_for_the_other_worker() {
        map_panic_reaches_caller(true);
    }

    #[test]
    fn fixed_shards_are_thread_count_invariant() {
        // The shard boundaries must depend only on the shard size: the same
        // (start, end) pairs come back in the same order for any thread cap.
        let reference = parallel_fixed_shards(103, 32, 1, |s, e| (s, e));
        assert_eq!(reference, vec![(0, 32), (32, 64), (64, 96), (96, 103)]);
        for threads in [2, 4, 16] {
            assert_eq!(
                parallel_fixed_shards(103, 32, threads, |s, e| (s, e)),
                reference
            );
        }
    }

    #[test]
    fn fixed_shards_empty_and_single() {
        assert!(parallel_fixed_shards(0, 32, 4, |s, e| (s, e)).is_empty());
        assert_eq!(parallel_fixed_shards(5, 32, 4, |s, e| (s, e)), vec![(0, 5)]);
    }

    #[test]
    #[should_panic]
    fn fixed_shards_reject_zero_shard_size() {
        parallel_fixed_shards(10, 0, 1, |s, e| (s, e));
    }

    #[test]
    fn row_blocks_cover_all_rows_disjointly() {
        let mut data = vec![0u32; 7 * 5];
        parallel_row_blocks(&mut data, 5, 3, |first_row, block| {
            for (r, row) in block.chunks_exact_mut(5).enumerate() {
                for v in row {
                    *v += (first_row + r) as u32 + 1;
                }
            }
        });
        for (r, row) in data.chunks_exact(5).enumerate() {
            assert!(row.iter().all(|&v| v == r as u32 + 1), "row {r}: {row:?}");
        }
    }

    #[test]
    fn row_blocks_first_block_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let mut data = vec![0u8; 6 * 4];
        let first_block_thread = Mutex::new(None);
        parallel_row_blocks(&mut data, 4, 3, |first_row, _| {
            if first_row == 0 {
                *first_block_thread.lock().unwrap() = Some(thread::current().id());
            }
        });
        assert_eq!(first_block_thread.into_inner().unwrap(), Some(caller));
    }

    #[test]
    fn row_blocks_empty_and_single_thread() {
        let mut empty: Vec<u8> = vec![];
        parallel_row_blocks(&mut empty, 4, 8, |_, _| panic!("no rows, no calls"));
        let mut data = vec![1u8; 12];
        parallel_row_blocks(&mut data, 4, 1, |first_row, block| {
            assert_eq!(first_row, 0);
            assert_eq!(block.len(), 12);
        });
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
