//! The persistent worker pool behind [`WorkerPool::par_map_indexed`].
//!
//! A [`WorkerPool`] spawns its OS threads **once** and feeds them work over
//! a channel, so the steady-state cost of a batch is one channel send per
//! participating worker — a µA741 session samples 16 batches and a
//! Monte-Carlo fleet thousands, so a spawn per batch (~100 µs at 4
//! workers) would dominate the small ones. A pool of one thread spawns
//! nothing and runs every map inline.
//!
//! Items are claimed dynamically from an atomic cursor, each participating
//! worker owns one scratch, and results are written home by index and
//! collected `0..n` — so for a map function that is a pure function of
//! `(index, item, scratch)`, the output is **bit-identical** to a
//! sequential map at any worker count. `tests/prop.rs` asserts this by
//! property test.
//!
//! # How borrowed work crosses into persistent threads
//!
//! Persistent threads outlive any one call, so the job closure they receive
//! must be `'static` — but the whole point of the contract is that workers
//! borrow the caller's item slice and closures without cloning. The pool
//! bridges the gap the same way every scoped-pool implementation does: the
//! per-call job is built with the caller's (non-`'static`) borrows and its
//! lifetime is erased by an `unsafe` transmute before being sent to the
//! workers. This is the crate's only `unsafe` block. Soundness rests on
//! one invariant, maintained by [`WorkerPool::par_map_indexed`]: **the call
//! blocks until every dispatched job has sent its completion ack, and an
//! ack is the last thing a job does with the borrowed state** — so no
//! borrow is ever touched after the call returns. Worker panics are caught,
//! forwarded as failed acks, and re-raised with their original payload on
//! the calling thread once all workers have stopped.
//!
//! # Example
//!
//! ```
//! use refgen_exec::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let items: Vec<u64> = (0..100).collect();
//! let pooled = pool.par_map_indexed(&items, || (), |i, &x, _| x + i as u64);
//! let serial: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x + i as u64).collect();
//! assert_eq!(pooled, serial);
//! ```

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::resolve_threads;

/// A type-erased, lifetime-erased unit of work. See the module docs for
/// why the `'static` here is a (sound) lie.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of persistent worker threads executing
/// [`WorkerPool::par_map_indexed`] batches. See the [module docs](self).
///
/// Dropping the pool closes the job channel and joins every worker.
pub struct WorkerPool {
    threads: usize,
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("threads", &self.threads).finish()
    }
}

impl WorkerPool {
    /// Spawns a pool of [`resolve_threads`]`(threads)` workers (`0` = use
    /// the available hardware parallelism). A resolved count of 1 spawns
    /// **no** threads at all: every batch runs inline on the caller's
    /// thread, which keeps the single-threaded configuration identical to
    /// the plain sequential map.
    pub fn new(threads: usize) -> WorkerPool {
        let threads = resolve_threads(threads).max(1);
        if threads == 1 {
            return WorkerPool { threads, sender: None, workers: Vec::new() };
        }
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..threads)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || loop {
                    // Hold the lock only while claiming, not while running.
                    let job = match receiver.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => break,
                    };
                    match job {
                        Ok(job) => job(),
                        Err(_) => break, // channel closed: pool dropped
                    }
                })
            })
            .collect();
        WorkerPool { threads, sender: Some(sender), workers }
    }

    /// The resolved worker count this pool schedules onto (≥ 1; `1` means
    /// inline execution, no threads).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on the pool's workers with one
    /// `make_scratch()` state per participating worker, returning results
    /// **in item order** (see the [crate docs](crate) on determinism).
    ///
    /// At most [`effective_threads`](crate::effective_threads) workers
    /// participate; with an effective count of 1 (a one-thread pool, or a
    /// single item) the whole map runs inline on the caller's thread.
    ///
    /// # Panics
    ///
    /// If `f` panics on any item, the panic propagates to the caller, with
    /// its original payload, once all participating workers have finished
    /// their remaining items. The pool stays usable.
    pub fn par_map_indexed<T, S, R, FS, F>(&self, items: &[T], make_scratch: FS, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        FS: Fn() -> S + Sync,
        F: Fn(usize, &T, &mut S) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        let Some(sender) = self.sender.as_ref().filter(|_| workers > 1) else {
            let mut scratch = make_scratch();
            return items.iter().enumerate().map(|(i, item)| f(i, item, &mut scratch)).collect();
        };

        let cursor = AtomicUsize::new(0);
        // One slot per item, written exactly once by whichever worker
        // claims the index; collection order is fixed regardless of the
        // schedule.
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let (ack_tx, ack_rx): (Sender<Ack>, Receiver<Ack>) = channel();

        for _ in 0..workers {
            let ack_tx = ack_tx.clone();
            let cursor = &cursor;
            let slots = &slots;
            let make_scratch = &make_scratch;
            let f = &f;
            let run = move || {
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut scratch = make_scratch();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = f(i, &items[i], &mut scratch);
                        // A poisoned slot means a sibling worker panicked;
                        // the value is written exactly once and never torn,
                        // so recover instead of cascading a second panic.
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                    }
                }));
                // The ack is the job's last touch of any borrowed state;
                // par_map_indexed cannot return before receiving it.
                let _ = ack_tx.send(outcome);
            };
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(run);
            // SAFETY: the job borrows `cursor`, `slots`, `items`,
            // `make_scratch` and `f`, all of which outlive this call frame.
            // The loop below blocks until every dispatched job has sent its
            // ack, and the ack is the final action of the job body, so no
            // borrow is used after this function returns (see the module
            // docs). The transmute only erases the borrow lifetime; the
            // vtable and layout of the trait object are unchanged.
            let job: Job = unsafe { std::mem::transmute(job) };
            sender.send(job).expect("worker pool channel closed while pool is alive");
        }

        // Wait for every dispatched job; a disconnected channel here would
        // mean a worker died without acking, which the catch_unwind makes
        // impossible.
        let mut panic: Option<Payload> = None;
        for _ in 0..workers {
            match ack_rx.recv().expect("worker dropped its ack channel") {
                Ok(()) => {}
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every index below the cursor was computed")
            })
            .collect()
    }
}

type Payload = Box<dyn std::any::Any + Send + 'static>;

/// Per-job completion message: `Ok` or the caught panic payload.
type Ack = Result<(), Payload>;

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_matches_scoped_and_sequential() {
        let pool = WorkerPool::new(4);
        let items: Vec<f64> = (0..123).map(|i| 0.5 + i as f64 / 3.0).collect();
        let map = |i: usize, x: &f64, buf: &mut Vec<f64>| {
            buf.clear();
            buf.extend((0..6).map(|k| x.powi(k)));
            buf.iter().sum::<f64>() * (i as f64 + 1.0)
        };
        let sequential: Vec<f64> =
            items.iter().enumerate().map(|(i, x)| map(i, x, &mut Vec::new())).collect();
        let inline = WorkerPool::new(1).par_map_indexed(&items, Vec::new, map);
        let pooled = pool.par_map_indexed(&items, Vec::new, map);
        assert_eq!(sequential, inline);
        assert_eq!(sequential, pooled);
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let items: Vec<usize> = (0..round).collect();
            let out = pool.par_map_indexed(&items, || (), |i, &x, _| i + x);
            assert_eq!(out, items.iter().map(|&x| 2 * x).collect::<Vec<_>>(), "round {round}");
        }
    }

    #[test]
    fn pool_with_one_thread_spawns_nothing_and_works() {
        let pool = WorkerPool::new(1);
        assert!(pool.workers.is_empty());
        let out = pool.par_map_indexed(&[10u32, 20, 30], || (), |_, &x, _| x / 10);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn pool_caps_workers_at_item_count() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.par_map_indexed(&[7u8], || (), |_, &x, _| x * 2), vec![14]);
        assert!(pool.par_map_indexed(&[] as &[u8], || (), |_, &x, _| x).is_empty());
    }

    #[test]
    fn pool_scratch_count_bounded_by_workers() {
        let made = AtomicUsize::new(0);
        let pool = WorkerPool::new(4);
        let items = vec![0u8; 64];
        pool.par_map_indexed(
            &items,
            || {
                made.fetch_add(1, Ordering::Relaxed);
            },
            |_, _, _| (),
        );
        let count = made.load(Ordering::Relaxed);
        assert!((1..=4).contains(&count), "scratches: {count}");
    }

    #[test]
    #[should_panic(expected = "boom at 17")]
    fn pool_propagates_worker_panics() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..64).collect();
        pool.par_map_indexed(
            &items,
            || (),
            |i, _, _| {
                if i == 17 {
                    panic!("boom at 17");
                }
                i
            },
        );
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..32).collect();
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_indexed(
                &items,
                || (),
                |i, _, _| {
                    if i == 3 {
                        panic!("one bad item");
                    }
                    i
                },
            )
        }));
        assert!(panicked.is_err());
        // The pool's workers caught the panic and kept their loops: the
        // next batch must run normally.
        let out = pool.par_map_indexed(&items, || (), |i, _, _| i * 2);
        assert_eq!(out[31], 62);
    }
}
