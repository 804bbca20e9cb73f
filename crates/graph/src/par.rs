//! Deterministic data-parallel helpers built on `std::thread::scope`.
//!
//! Parallelism is something a **caller asks for**: both helpers take the
//! caller's thread count (or the caller's chunk boundaries) and nothing in
//! this workspace fans out on its own — a dense kernel or a plain
//! `spmm_into` runs on the thread that calls it. `FEDGTA_THREADS` has one
//! meaning: the default of every `threads = 0` ("auto") parameter
//! ([`resolve_threads`]).
//!
//! Work is split into contiguous chunks so results are identical regardless
//! of the number of worker threads; each output chunk is written by exactly
//! one thread (no atomics, no locks on the hot path).
//!
//! - [`par_map_indexed`]: a task scope mapping a closure over disjoint
//!   `&mut` slots (federated clients, Eq. 6/7 server rows), collecting
//!   results **in input order** so downstream floating-point reductions
//!   are order-stable;
//! - [`par_chunks_mut_at`]: one output buffer split at caller-chosen row
//!   boundaries (the explicit-thread SpMM entries).
//!
//! Both hand their parts to the one spawn site, [`spawn_each`]. Nested
//! parallelism is suppressed there: a worker that calls back into either
//! helper runs the inner call inline. This keeps an explicit-thread call
//! inside a client-parallel federated round from multiplying thread counts
//! (outer × inner) while — by the determinism contract — changing no
//! results.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set while the current thread is a [`spawn_each`] worker; nested
    /// parallel helpers then run inline instead of spawning again.
    static IN_PARALLEL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when called from inside a [`par_map_indexed`] or
/// [`par_chunks_mut_at`] worker — the nested-call guard both helpers
/// consult, so their callers need not.
fn in_parallel_worker() -> bool {
    IN_PARALLEL_WORKER.with(|f| f.get())
}

/// Resolves a worker-thread count: an explicit non-zero request wins,
/// otherwise the `FEDGTA_THREADS` environment variable, otherwise
/// available parallelism. Always at least 1.
///
/// `Some(0)` and `None` both mean "no explicit request" so callers can
/// plumb a plain `usize` config field (0 = auto) straight through.
///
/// The environment variable and core count are read **once** and cached
/// for the life of the process: `std::env::var` heap-allocates and an
/// explicit-thread kernel entry resolves its count on every call. Tests
/// that mutate `FEDGTA_THREADS` must call [`refresh_thread_env`]
/// afterwards.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        if n > 0 {
            return n;
        }
    }
    auto_threads()
}

/// Cached auto-resolved thread count (env var / core count). 0 = not yet
/// computed; the cached value is always >= 1 so 0 is a safe sentinel.
static AUTO_THREADS: AtomicUsize = AtomicUsize::new(0);

fn auto_threads() -> usize {
    let cached = AUTO_THREADS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = read_auto_threads();
    AUTO_THREADS.store(n, Ordering::Relaxed);
    n
}

/// The uncached resolution: `FEDGTA_THREADS` if set and parsable
/// (clamped to >= 1), else available parallelism.
fn read_auto_threads() -> usize {
    if let Ok(s) = std::env::var("FEDGTA_THREADS") {
        if let Ok(n) = s.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Drops the cached thread-count resolution so the next call re-reads
/// `FEDGTA_THREADS`. Only needed by tests (and other tooling) that change
/// the environment variable after the first resolution.
#[doc(hidden)]
pub fn refresh_thread_env() {
    AUTO_THREADS.store(0, Ordering::Relaxed);
}

/// The one place this workspace spawns compute threads: runs
/// `work(part_index, part)` on one scoped worker per part and joins them
/// all. Every worker is marked [`in_parallel_worker`] for its whole life,
/// and a worker panic reaches the caller as a panic after the join.
fn spawn_each<P, W>(parts: impl Iterator<Item = P>, work: W)
where
    P: Send,
    W: Fn(usize, P) + Sync,
{
    std::thread::scope(|scope| {
        for (idx, part) in parts.enumerate() {
            let work = &work;
            scope.spawn(move || {
                IN_PARALLEL_WORKER.with(|flag| flag.set(true));
                work(idx, part)
            });
        }
    });
}

/// Maps `f(index, &mut items[index])` over every item, in parallel across
/// `threads` workers (resolved via [`resolve_threads`]), returning the
/// results **in item order**.
///
/// Determinism contract: each item is visited exactly once by exactly one
/// worker, items never share state (disjoint `&mut` slots), and the output
/// vector is assembled in input order on the caller's thread — so the
/// result is bit-identical for any thread count provided `f` itself only
/// touches its own item (plus shared immutable state).
///
/// Worker panics propagate to the caller as a panic after all workers have
/// been joined. Runs inline (no spawning) when fewer than 2 items, when
/// only one thread is resolved, or when already inside a parallel worker.
pub fn par_map_indexed<T, R, F>(items: &mut [T], threads: Option<usize>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let threads = resolve_threads(threads).min(n.max(1));
    if threads <= 1 || n < 2 || in_parallel_worker() {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let per = n.div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let parts = items.chunks_mut(per).zip(out.chunks_mut(per));
    spawn_each(parts, |idx, (item_chunk, out_chunk)| {
        for (k, (item, slot)) in item_chunk.iter_mut().zip(out_chunk).enumerate() {
            *slot = Some(f(idx * per + k, item));
        }
    });
    out.into_iter().map(|r| r.expect("worker filled every slot")).collect()
}

/// Runs `f(chunk_index, out_chunk, row_range)` over `out` split at
/// caller-chosen row boundaries `bounds` (ascending, `bounds[0] == 0`,
/// `bounds.last() == rows`), one spawned worker per non-empty chunk.
///
/// The caller picks boundaries that equalize actual *work* rather than
/// row counts (e.g. nonzeros per row chunk for SpMM on power-law graphs).
/// Every row is written by exactly one worker and per-row arithmetic does
/// not depend on the chunk it lands in, so results are bit-identical for
/// any boundary choice or thread count.
///
/// Runs inline (no spawning) when there is at most one non-empty chunk or
/// when already inside a parallel worker.
pub fn par_chunks_mut_at<F>(out: &mut [f32], row_size: usize, bounds: &[usize], f: F)
where
    F: Fn(usize, &mut [f32], std::ops::Range<usize>) + Sync,
{
    assert!(bounds.len() >= 2, "need at least [0, rows] boundaries");
    let rows = *bounds.last().unwrap();
    assert_eq!(bounds[0], 0, "boundaries must start at row 0");
    assert!(bounds.windows(2).all(|w| w[0] <= w[1]), "boundaries must be non-decreasing");
    assert_eq!(out.len(), rows * row_size, "output buffer size mismatch");
    let nonempty = bounds.windows(2).filter(|w| w[1] > w[0]).count();
    if nonempty <= 1 || in_parallel_worker() {
        if rows > 0 {
            f(0, out, 0..rows);
        }
        return;
    }
    let mut rest = out;
    let parts = bounds.windows(2).filter(|w| w[1] > w[0]).map(|w| {
        let (head, tail) = std::mem::take(&mut rest).split_at_mut((w[1] - w[0]) * row_size);
        rest = tail;
        (head, w[0]..w[1])
    });
    spawn_each(parts, |idx, (chunk, range)| f(idx, chunk, range));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the `FEDGTA_THREADS` environment
    /// variable (the test harness runs tests concurrently and env vars are
    /// process-global).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    #[should_panic(expected = "output buffer size mismatch")]
    fn size_mismatch_panics() {
        let mut out = vec![0f32; 5];
        par_chunks_mut_at(&mut out, 3, &[0, 1, 2], |_, _, _| {});
    }

    #[test]
    fn chunks_at_cover_all_rows_once_with_uneven_bounds() {
        let rows = 11;
        let width = 3;
        let mut out = vec![0f32; rows * width];
        // Deliberately skewed boundaries, including an empty chunk.
        par_chunks_mut_at(&mut out, width, &[0, 1, 1, 9, 11], |_, chunk, range| {
            for (local, row) in range.enumerate() {
                for c in 0..width {
                    chunk[local * width + c] = (row * width + c) as f32;
                }
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as f32);
        }
    }

    #[test]
    fn chunks_at_single_chunk_runs_inline() {
        let mut out = vec![0f32; 6];
        par_chunks_mut_at(&mut out, 3, &[0, 0, 2, 2], |idx, chunk, range| {
            assert_eq!(idx, 0);
            assert_eq!(range, 0..2);
            assert!(!in_parallel_worker(), "single chunk must run inline");
            chunk.fill(5.0);
        });
        assert_eq!(out, vec![5.0; 6]);
    }

    #[test]
    fn chunks_at_zero_rows_is_a_no_op() {
        let mut out: Vec<f32> = vec![];
        par_chunks_mut_at(&mut out, 4, &[0, 0], |_, _, _| {
            panic!("must not be called for zero rows");
        });
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn chunks_at_rejects_descending_bounds() {
        let mut out = vec![0f32; 4];
        par_chunks_mut_at(&mut out, 1, &[0, 3, 2, 4], |_, _, _| {});
    }

    #[test]
    fn map_indexed_returns_results_in_input_order() {
        // Odd item count over several workers: chunk boundaries don't
        // align, yet results must land at their input positions.
        let mut items: Vec<u64> = (0..37).collect();
        let got = par_map_indexed(&mut items, Some(8), |i, v| {
            *v += 1;
            (i as u64) * 100 + *v
        });
        for (i, r) in got.iter().enumerate() {
            assert_eq!(*r, (i as u64) * 100 + i as u64 + 1);
        }
        assert_eq!(items, (1..=37).collect::<Vec<_>>());
    }

    #[test]
    fn map_indexed_parallel_matches_inline_bitwise() {
        // The determinism contract itself: per-item results are computed
        // independently, so any thread count yields identical bits.
        let mut a: Vec<f32> = (0..25).map(|i| i as f32 * 0.37).collect();
        let mut b = a.clone();
        let one = par_map_indexed(&mut a, Some(1), |i, v| (*v * (i as f32 + 0.5)).sin());
        let four = par_map_indexed(&mut b, Some(4), |i, v| (*v * (i as f32 + 0.5)).sin());
        assert_eq!(one.len(), four.len());
        for (x, y) in one.iter().zip(&four) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_singleton() {
        let mut empty: Vec<i32> = vec![];
        let got: Vec<i32> = par_map_indexed(&mut empty, Some(4), |_, v| *v);
        assert!(got.is_empty());
        // A single item takes the inline path (n < 2) even with many
        // threads requested.
        let mut one = vec![41];
        let got = par_map_indexed(&mut one, Some(16), |i, v| {
            assert_eq!(i, 0);
            assert!(!in_parallel_worker(), "singleton must run inline");
            *v + 1
        });
        assert_eq!(got, vec![42]);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn map_indexed_propagates_worker_panics() {
        let mut items: Vec<u32> = (0..8).collect();
        par_map_indexed(&mut items, Some(4), |i, _| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn nested_calls_run_inline_inside_workers() {
        // A worker calling back into par_map_indexed must not spawn again:
        // the inner call sees IN_PARALLEL_WORKER and runs inline, and the
        // combined result is still deterministic.
        let mut outer: Vec<u32> = (0..6).collect();
        let got = par_map_indexed(&mut outer, Some(3), |_, v| {
            assert!(in_parallel_worker());
            let mut inner: Vec<u32> = (0..4).map(|k| *v + k).collect();
            let inner_sums = par_map_indexed(&mut inner, Some(3), |_, w| *w * 2);
            inner_sums.iter().sum::<u32>()
        });
        let expect: Vec<u32> = (0..6u32).map(|v| (0..4).map(|k| (v + k) * 2).sum()).collect();
        assert_eq!(got, expect);
        assert!(!in_parallel_worker(), "flag must not leak to the caller");
    }

    #[test]
    fn workers_of_both_helpers_are_marked_and_nest_inline() {
        // Both helpers spawn through `spawn_each`: a worker of either sees
        // the flag, so an explicit-thread call inside it stays on its thread.
        let nested_stays_here = || {
            let me = std::thread::current().id();
            let mut inner = [0u8; 4];
            par_map_indexed(&mut inner, Some(4), |_, _| std::thread::current().id() == me)
                .into_iter()
                .all(|same| same)
        };
        let caller = std::thread::current().id();
        let on_marked_worker =
            || in_parallel_worker() && std::thread::current().id() != caller && nested_stays_here();
        let mut items = [0u8; 4];
        let got = par_map_indexed(&mut items, Some(2), |_, _| on_marked_worker());
        assert_eq!(got, vec![true; 4]);
        let mut out = vec![0f32; 4];
        par_chunks_mut_at(&mut out, 1, &[0, 2, 4], |_, chunk, _| {
            chunk.fill(if on_marked_worker() { 1.0 } else { 0.0 });
        });
        assert_eq!(out, vec![1.0; 4]);
        assert!(!in_parallel_worker(), "flag must not leak to the caller");
    }

    #[test]
    fn resolve_threads_precedence() {
        let _guard = ENV_LOCK.lock().unwrap();
        let saved = std::env::var("FEDGTA_THREADS").ok();
        // Explicit non-zero request always wins.
        std::env::set_var("FEDGTA_THREADS", "7");
        refresh_thread_env();
        assert_eq!(resolve_threads(Some(3)), 3);
        // 0 / None fall back to the environment variable.
        assert_eq!(resolve_threads(Some(0)), 7);
        assert_eq!(resolve_threads(None), 7);
        // An unparsable value is ignored; a zero value clamps to 1.
        std::env::set_var("FEDGTA_THREADS", "0");
        refresh_thread_env();
        assert_eq!(resolve_threads(None), 1);
        std::env::set_var("FEDGTA_THREADS", "not-a-number");
        refresh_thread_env();
        assert!(resolve_threads(None) >= 1);
        match saved {
            Some(v) => std::env::set_var("FEDGTA_THREADS", v),
            None => std::env::remove_var("FEDGTA_THREADS"),
        }
        refresh_thread_env();
    }

    #[test]
    fn auto_resolution_is_cached_until_refreshed() {
        let _guard = ENV_LOCK.lock().unwrap();
        let saved = std::env::var("FEDGTA_THREADS").ok();
        std::env::set_var("FEDGTA_THREADS", "5");
        refresh_thread_env();
        assert_eq!(resolve_threads(None), 5);
        // Without a refresh the cached value survives an env change …
        std::env::set_var("FEDGTA_THREADS", "2");
        assert_eq!(resolve_threads(None), 5);
        // … and a refresh picks up the new value.
        refresh_thread_env();
        assert_eq!(resolve_threads(None), 2);
        match saved {
            Some(v) => std::env::set_var("FEDGTA_THREADS", v),
            None => std::env::remove_var("FEDGTA_THREADS"),
        }
        refresh_thread_env();
    }

    #[test]
    fn env_single_thread_forces_inline_map() {
        let _guard = ENV_LOCK.lock().unwrap();
        let saved = std::env::var("FEDGTA_THREADS").ok();
        std::env::set_var("FEDGTA_THREADS", "1");
        refresh_thread_env();
        let mut items: Vec<u32> = (0..12).collect();
        let got = par_map_indexed(&mut items, None, |i, v| {
            assert!(!in_parallel_worker(), "FEDGTA_THREADS=1 must take the inline path");
            *v + i as u32
        });
        assert_eq!(got, (0..12).map(|i| 2 * i).collect::<Vec<_>>());
        match saved {
            Some(v) => std::env::set_var("FEDGTA_THREADS", v),
            None => std::env::remove_var("FEDGTA_THREADS"),
        }
        refresh_thread_env();
    }
}
