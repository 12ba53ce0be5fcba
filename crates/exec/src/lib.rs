//! Dependency-free parallel map for the `refgen` workspace.
//!
//! The interpolation engine's hot loop — evaluating the MNA determinant or
//! cofactor at `K` unit-circle points — is embarrassingly parallel: every
//! point is an independent numeric refactorization, and every variant of a
//! fleet is an independent solve. This crate provides the one primitive
//! both need, [`WorkerPool::par_map_indexed`]: map a function over a work
//! list on a fixed set of OS threads, giving each participating thread its
//! own scratch state, and collect the results **in index order** so the
//! output is bit-identical at any thread count. The pool spawns its
//! threads once, when it is built, and a one-thread pool spawns none: it
//! runs every map inline on the caller's thread.
//!
//! # Why not rayon?
//!
//! The build container for this workspace cannot reach crates.io; every
//! external dependency is a vendored API-subset shim (see the workspace
//! `vendor/` directory). Vendoring a faithful rayon shim would mean
//! reimplementing its work-stealing deques and join primitives — far more
//! code than the one fork/join shape the engine actually needs. The price
//! of a hand-written pool is one `unsafe` lifetime erasure (see the
//! [`pool`] module). If the registry ever becomes reachable,
//! [`WorkerPool::par_map_indexed`] is the single seam to swap for a rayon
//! `ThreadPool` running an indexed `par_iter().map_init(..).collect()`.
//!
//! # Determinism
//!
//! Work items are claimed dynamically (an atomic cursor), so *which thread*
//! computes an item is scheduling-dependent — but each result is written to
//! its item's slot and the output `Vec` is assembled `0..n`. As long as the
//! map function is a pure function of `(index, item, scratch)` with scratch
//! state that does not leak between items in a result-affecting way, the
//! returned vector is identical for 1, 2, or 64 threads.
//!
//! # Example
//!
//! ```
//! use refgen_exec::WorkerPool;
//!
//! let items: Vec<u64> = (0..100).collect();
//! let serial = WorkerPool::new(1).par_map_indexed(&items, || 0u64, |i, &x, _| x * i as u64);
//! let parallel = WorkerPool::new(4).par_map_indexed(&items, || 0u64, |i, &x, _| x * i as u64);
//! assert_eq!(serial, parallel);
//! ```

pub mod pool;

pub use pool::WorkerPool;

/// A caught job panic rendered as a typed failure: callers that quarantine
/// a panic with `std::panic::catch_unwind` (a fleet under a containing
/// fault policy) turn the payload into this instead of unwinding.
///
/// Only the panic *message* survives the crossing (string payloads are
/// preserved verbatim; anything else is summarized), which keeps the type
/// `Clone + PartialEq` so callers can store and compare outcomes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic message (`panic!("...")` payload), or a placeholder for
    /// non-string payloads.
    pub message: String,
}

impl JobPanic {
    /// Renders a caught panic payload (`std::panic::catch_unwind`'s `Err`)
    /// as a typed failure.
    pub fn from_payload(payload: Box<dyn std::any::Any + Send>) -> JobPanic {
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "job panicked with a non-string payload".to_string()
        };
        JobPanic { message }
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Number of hardware threads available to this process (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolves a thread-count knob: `0` means "use the available hardware
/// parallelism", any other value is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// The worker count a [`WorkerPool`] of `requested` threads actually uses
/// over `items` work items: [`resolve_threads`], capped at the item count,
/// floored at 1. Callers that report the worker count (e.g. in
/// diagnostics) use this so their number always matches the pool's
/// behavior.
pub fn effective_threads(requested: usize, items: usize) -> usize {
    resolve_threads(requested).min(items).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resolves_zero_to_hardware() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(0), available_threads());
    }

    #[test]
    fn effective_threads_caps_and_floors() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(4, 0), 1);
        assert_eq!(effective_threads(0, 100), available_threads().min(100));
    }

    #[test]
    fn maps_in_index_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = WorkerPool::new(4).par_map_indexed(&items, || (), |i, &x, _| (i, x * 2));
        assert_eq!(out.len(), 257);
        for (i, &(idx, doubled)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(doubled, 2 * i);
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        let items: Vec<f64> = (0..100).map(|i| 1.0 + i as f64 / 7.0).collect();
        // A scratch-accumulating map whose per-item result depends only on
        // the item (the scratch is a reusable buffer, not carried state).
        let run = |threads: usize| {
            WorkerPool::new(threads).par_map_indexed(&items, Vec::<f64>::new, |i, &x, buf| {
                buf.clear();
                buf.extend((0..8).map(|k| x.powi(k)));
                buf.iter().sum::<f64>() * (i as f64 + 1.0)
            })
        };
        let one = run(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(one, run(threads), "threads = {threads}");
        }
    }

    #[test]
    fn one_scratch_per_worker() {
        let items = vec![0u8; 64];
        for threads in [1, 2] {
            let made = AtomicUsize::new(0);
            WorkerPool::new(threads).par_map_indexed(
                &items,
                || {
                    made.fetch_add(1, Ordering::Relaxed);
                },
                |_, _, _| (),
            );
            let count = made.load(Ordering::Relaxed);
            // Inline runs build exactly one scratch.
            assert!((1..=threads).contains(&count), "threads {threads}: {count} scratches");
        }
    }

    #[test]
    fn empty_and_single_item_lists() {
        let pool = WorkerPool::new(3);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map_indexed(&empty, || (), |_, &x, _| x).is_empty());
        let one = vec![41u32];
        assert_eq!(pool.par_map_indexed(&one, || (), |_, &x, _| x + 1), vec![42]);
    }

    #[test]
    fn caps_threads_at_item_count() {
        // 8 workers over 3 items must not deadlock or drop results.
        let items = vec![1u32, 2, 3];
        let pool = WorkerPool::new(8);
        assert_eq!(pool.par_map_indexed(&items, || (), |_, &x, _| x * 10), vec![10, 20, 30]);
    }
}
