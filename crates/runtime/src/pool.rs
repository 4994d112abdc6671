//! The workspace's one worker pool: [`par_map`].
//!
//! Every parallel map in the workspace — the step pipeline's apply and
//! guard kernels, the campaign engine's scenarios, the exhaustive
//! explorer's frontier states and the analyzer's labels — runs through
//! this one function. Under composite atomicity each of those items
//! reads only shared, frozen input, so the map splits across threads
//! without changing a byte of its result.
//!
//! # Contract
//!
//! * The calling thread is one of the workers: `t` workers cost `t − 1`
//!   spawns, and one worker spawns none.
//! * One atomic cursor hands out fixed-size chunks of the index range,
//!   so a worker that finishes early takes the next chunk instead of
//!   idling.
//! * Each worker builds one state with `init(worker_id)` (worker 0 is
//!   the caller) and threads it through every item it runs; the states
//!   come back to the caller, one per worker, in worker order.
//! * Results come back in index order, whichever worker ran them.
//! * A panic in any worker, the caller included, is re-raised in the
//!   caller once every worker has stopped.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over the indices `0..len` on up to `threads` workers,
/// handing out `chunk` consecutive indices at a time, and returns the
/// results in index order together with each worker's state.
///
/// The worker count is `threads` clamped to `[1, ⌈len / chunk⌉]` (so
/// one worker — the caller — when `len == 0`); `threads == 0` and
/// `chunk == 0` count as 1. `init(w)` runs on worker `w` before its
/// first item, and `f(&mut state, i)` computes the result of index `i`.
///
/// # Panics
///
/// Re-raises, in the caller, the panic of any worker.
///
/// # Examples
///
/// ```
/// use ssr_runtime::pool::par_map;
///
/// // Squares on three workers, each counting the items it ran.
/// let (squares, counts) = par_map(10, 3, 1, |_| 0usize, |ran, i| {
///     *ran += 1;
///     i * i
/// });
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// assert_eq!(counts.len(), 3);
/// assert_eq!(counts.iter().sum::<usize>(), 10);
/// ```
pub fn par_map<S, R, I, F>(
    len: usize,
    threads: usize,
    chunk: usize,
    init: I,
    f: F,
) -> (Vec<R>, Vec<S>)
where
    S: Send,
    R: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let chunk = chunk.max(1);
    let chunks = len.div_ceil(chunk);
    let workers = threads.clamp(1, chunks.max(1));
    // Relaxed: the cursor only splits the index range; the results
    // reach the caller through `join`.
    let cursor = AtomicUsize::new(0);
    // One worker's run: its state and the chunks it claimed, each with
    // its results. Chunk 0's vector becomes the output, so it has room
    // for every result.
    let work = |w: usize| {
        let mut state = init(w);
        let mut done = Vec::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= chunks {
                break;
            }
            let items = c * chunk..len.min((c + 1) * chunk);
            let mut out = Vec::with_capacity(if c == 0 { len } else { items.len() });
            out.extend(items.map(|i| f(&mut state, i)));
            done.push((c, out));
        }
        (state, done)
    };
    let work = &work;
    let shares = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|w| scope.spawn(move || work(w))).collect();
        let mut shares = Vec::with_capacity(workers);
        shares.push(work(0));
        for handle in spawned {
            shares.push(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        shares
    });

    let mut states = Vec::with_capacity(workers);
    let mut outs: Vec<Vec<R>> = (0..chunks).map(|_| Vec::new()).collect();
    for (state, claimed) in shares {
        states.push(state);
        for (c, out) in claimed {
            outs[c] = out;
        }
    }
    let mut outs = outs.into_iter();
    let mut results = outs.next().unwrap_or_default();
    for mut out in outs {
        results.append(&mut out);
    }
    (results, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    #[test]
    fn results_come_back_in_index_order() {
        for len in [0, 1, 2, 3, 7, 64, 100] {
            let expect: Vec<usize> = (0..len).map(|i| i * 31 + 7).collect();
            for threads in [1, 2, 3, 4, 8, 64] {
                for chunk in [1, len.div_ceil(threads)] {
                    let (got, states) = par_map(len, threads, chunk, |w| w, |_, i| i * 31 + 7);
                    assert_eq!(got, expect, "len={len} threads={threads} chunk={chunk}");
                    let workers = threads.min(len.div_ceil(chunk.max(1))).max(1);
                    assert_eq!(states, (0..workers).collect::<Vec<_>>());
                }
            }
        }
    }

    #[test]
    fn one_thread_runs_everything_on_the_caller() {
        let caller = thread::current().id();
        let (ran_on, states) = par_map(
            50,
            1,
            1,
            |w| (w, 0usize),
            |(_, count), _| {
                *count += 1;
                thread::current().id()
            },
        );
        assert!(ran_on.iter().all(|&id| id == caller));
        assert_eq!(states, vec![(0, 50)]);
    }

    #[test]
    fn each_worker_returns_its_state() {
        // Items block on a barrier until every worker holds one, so
        // each of the four workers runs exactly one item.
        let barrier = Barrier::new(4);
        let caller = thread::current().id();
        let (ids, states) = par_map(
            4,
            4,
            1,
            |w| (w, Vec::new()),
            |(_, ran): &mut (usize, Vec<usize>), i| {
                barrier.wait();
                ran.push(i);
                thread::current().id()
            },
        );
        assert_eq!(states.len(), 4);
        for (w, (id, ran)) in states.iter().enumerate() {
            assert_eq!(*id, w);
            assert_eq!(ran.len(), 1, "worker {w} ran {ran:?}");
        }
        let distinct: std::collections::HashSet<ThreadId> = ids.iter().copied().collect();
        assert_eq!(distinct.len(), 4);
        assert_eq!(ids[states[0].1[0]], caller, "worker 0 is the caller");
    }

    #[test]
    fn a_panic_at_any_index_reaches_the_caller() {
        for threads in [1, 2, 4] {
            for at in 0..8 {
                let result = catch_unwind(|| {
                    par_map(
                        8,
                        threads,
                        1,
                        |_| (),
                        |_, i| {
                            assert_ne!(i, at, "planted panic");
                            i
                        },
                    )
                });
                let panic = result.expect_err("the panic must reach the caller");
                let message = panic
                    .downcast_ref::<String>()
                    .expect("assert_ne! panics with a String");
                assert!(message.contains("planted panic"), "{message}");
            }
        }
    }

    #[test]
    fn a_panic_in_either_share_reaches_the_caller() {
        let caller = thread::current().id();
        for in_caller in [true, false] {
            // Both workers must hold an item before either may panic,
            // so the planted panic is in the chosen share.
            let barrier = Barrier::new(2);
            let result = catch_unwind(AssertUnwindSafe(|| {
                par_map(
                    2,
                    2,
                    1,
                    |_| (),
                    |_, i| {
                        barrier.wait();
                        if (thread::current().id() == caller) == in_caller {
                            panic!("planted panic");
                        }
                        i
                    },
                )
            }));
            assert!(result.is_err(), "in_caller={in_caller}");
        }
    }
}
