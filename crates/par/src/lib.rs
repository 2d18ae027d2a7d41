#![warn(missing_docs)]

//! `tsgb-par`: a std-only parallel execution runtime for the benchmark.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Every primitive is index-addressed: task `i`
//!    always computes the same value and lands in slot `i` of the
//!    output, so results are bit-identical no matter how many worker
//!    threads run — including one (inline execution). Reductions over
//!    parallel results must fold the returned `Vec` in index order,
//!    which callers get for free from [`parallel_map`]. Workers claim
//!    indices one at a time from a shared counter, so uneven job costs
//!    balance themselves; the claim order decides only which thread
//!    computes a slot, never what lands in it.
//! 2. **Zero dependencies.** Built on [`std::thread::scope`]; worker
//!    threads borrow the caller's data directly, no channels or arcs.
//! 3. **No oversubscription.** Worker closures run with the pool size
//!    forced to 1, so nested parallel calls (e.g. a parallel matmul
//!    inside a parallel eval measure) degrade to inline execution
//!    instead of multiplying threads.
//!
//! Pool sizing: the `TSGB_THREADS` environment variable when set (a
//! positive integer; `1` disables threading entirely), otherwise
//! [`std::thread::available_parallelism`]. [`with_threads`] overrides
//! the size for the current thread's dynamic scope, which tests use to
//! compare thread counts without touching the process environment.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// 0 = no override; otherwise the forced pool size for this thread.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };

    /// Cached environment-derived pool size; 0 = not read yet. An
    /// `std::env::var` lookup takes a process-global lock, far too
    /// expensive for the hot path (`max_threads` runs on every matmul
    /// dispatch), so each thread reads the environment once.
    static ENV_CACHE: Cell<usize> = const { Cell::new(0) };
}

/// The pool size the next parallel call on this thread will use:
/// the [`with_threads`] override if active, else `TSGB_THREADS`, else
/// the machine's available parallelism.
pub fn max_threads() -> usize {
    let o = THREAD_OVERRIDE.with(|c| c.get());
    if o > 0 {
        return o;
    }
    env_threads()
}

/// The environment-derived pool size (ignoring [`with_threads`]),
/// read once per thread: a change to `TSGB_THREADS` is observed by
/// threads spawned after it, not by threads that already sized their
/// pool.
fn env_threads() -> usize {
    ENV_CACHE.with(|c| {
        let cached = c.get();
        if cached > 0 {
            return cached;
        }
        let n = read_env_threads();
        c.set(n);
        n
    })
}

/// Uncached environment read behind [`env_threads`].
fn read_env_threads() -> usize {
    if let Ok(v) = std::env::var("TSGB_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with the pool size forced to `n` on the current thread
/// (restored afterwards, also on panic). `with_threads(1, f)` proves
/// the serial path: every parallel primitive inside runs inline.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(THREAD_OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// Maps `f` over `0..n` and returns the results in index order.
///
/// Output slot `i` always holds `f(i)`; with the pool sized at 1 (or
/// `n <= 1`) the whole map runs inline on the calling thread. Worker
/// threads run `f` with nested parallelism disabled.
///
/// Workers claim indices dynamically: each takes the next unclaimed
/// index from a shared counter, so a slow job delays only the worker
/// running it. Which worker runs an index is timing-dependent, but
/// where its result lands is not. If a job panics, the other workers
/// stop claiming new indices and the caller re-raises the panic's
/// original payload (the lowest-numbered panicking worker's, if
/// several panicked).
pub fn parallel_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = max_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // the next unclaimed index; `Relaxed` suffices because the counter
    // publishes no data: results travel back through `join`
    let next = AtomicUsize::new(0);
    let worker = || {
        // on unwind, end the claiming for every worker
        struct StopOnPanic<'a>(&'a AtomicUsize, usize);
        impl Drop for StopOnPanic<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(self.1, Ordering::Relaxed);
                }
            }
        }
        let _stop = StopOnPanic(&next, n);
        with_threads(1, || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                done.push((i, f(i)));
            }
        })
    };
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut panic = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (i, r) in done {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

/// Runs `f(i)` for every `i` in `0..n`, in parallel, on the same
/// claiming schedule as [`parallel_map`]. Use only for
/// side-effect-free-per-index work (e.g. filling disjoint interior
/// state through `&self`); for output collection use [`parallel_map`],
/// for disjoint mutation use [`parallel_chunks_mut`].
pub fn parallel_for(n: usize, f: impl Fn(usize) + Sync) {
    parallel_map(n, f);
}

/// Splits `data` into consecutive `chunk_len`-sized pieces (the last
/// may be shorter) and calls `f(chunk_index, chunk)` on each, in
/// parallel. Chunk `i` always covers `data[i*chunk_len ..]` — the
/// partition is independent of the thread count, so writes land in
/// identical places no matter how the chunks are scheduled. Chunks are
/// claimed one at a time through [`parallel_for`]; each sits behind
/// its own (never contended) lock, the safe way to hand a `&mut`
/// slice to whichever worker claims its index.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let chunks: Vec<Mutex<&mut [T]>> = data.chunks_mut(chunk_len).map(Mutex::new).collect();
    parallel_for(chunks.len(), |i| {
        let mut chunk = chunks[i].lock().expect("chunk lock is never poisoned");
        f(i, &mut chunk)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = with_threads(threads, || parallel_map(100, |i| i * i));
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        assert!(parallel_map(0, |i| i).is_empty());
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn single_thread_runs_inline() {
        let caller = std::thread::current().id();
        let ids = with_threads(1, || parallel_map(8, |_| std::thread::current().id()));
        assert!(
            ids.iter().all(|&id| id == caller),
            "pool of 1 must not spawn"
        );
    }

    #[test]
    fn multi_thread_actually_spawns() {
        if env_threads() < 2 {
            // single-core machine: spawning is pointless, inline is correct
            return;
        }
        let caller = std::thread::current().id();
        let ids = with_threads(4, || parallel_map(64, |_| std::thread::current().id()));
        assert!(ids.iter().any(|&id| id != caller));
    }

    #[test]
    fn workers_disable_nested_parallelism() {
        let nested = with_threads(4, || parallel_map(4, |_| max_threads()));
        if nested.len() == 4 {
            // whichever thread ran the task, the nested pool must be 1
            // (inline caller keeps its own override of 4 only when the
            // task ran without spawning, which with_threads(4) forbids
            // for n=4 > 1)
            assert!(nested.iter().all(|&t| t == 1), "{nested:?}");
        }
    }

    #[test]
    fn tsgb_threads_env_forces_inline() {
        // process-global env var: this is the only test that touches
        // it. The value is cached per thread at first use, so each
        // assertion runs on a freshly spawned thread.
        std::env::set_var("TSGB_THREADS", "1");
        std::thread::spawn(|| {
            let caller = std::thread::current().id();
            let ids = parallel_map(16, |_| std::thread::current().id());
            assert!(
                ids.iter().all(|&id| id == caller),
                "TSGB_THREADS=1 must degrade to inline execution"
            );
        })
        .join()
        .unwrap();
        std::env::set_var("TSGB_THREADS", "3");
        std::thread::spawn(|| assert_eq!(max_threads(), 3))
            .join()
            .unwrap();
        std::env::remove_var("TSGB_THREADS");
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let before = max_threads();
        with_threads(2, || assert_eq!(max_threads(), 2));
        assert_eq!(max_threads(), before);
    }

    #[test]
    fn chunks_mut_partitions_identically() {
        let mut serial = vec![0usize; 103];
        with_threads(1, || {
            parallel_chunks_mut(&mut serial, 10, |idx, c| {
                for (j, v) in c.iter_mut().enumerate() {
                    *v = idx * 1000 + j;
                }
            })
        });
        for threads in [2, 5, 16] {
            let mut par = vec![0usize; 103];
            with_threads(threads, || {
                parallel_chunks_mut(&mut par, 10, |idx, c| {
                    for (j, v) in c.iter_mut().enumerate() {
                        *v = idx * 1000 + j;
                    }
                })
            });
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_for_covers_every_index() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits: Vec<AtomicUsize> = (0..57).map(|_| AtomicUsize::new(0)).collect();
        with_threads(4, || {
            parallel_for(57, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// A job whose cost depends on its index: index `i` spins
    /// `(i * 7919) % 13` times longer than the cheapest, so a static
    /// split would leave workers unevenly loaded.
    fn uneven(i: usize) -> u64 {
        let mut acc = i as u64;
        for k in 0..((i * 7919) % 13) * 2_000 {
            acc =
                std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64));
        }
        std::hint::black_box(acc);
        (i * i) as u64
    }

    #[test]
    fn uneven_jobs_return_in_index_order() {
        let expect: Vec<u64> = (0..61).map(|i| (i * i) as u64).collect();
        for threads in [1, 2, 3, 8] {
            let out = with_threads(threads, || parallel_map(61, uneven));
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_jobs_run_every_index_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 2, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..61).map(|_| AtomicUsize::new(0)).collect();
            with_threads(threads, || {
                parallel_for(61, |i| {
                    uneven(i);
                    hits[i].fetch_add(1, Ordering::Relaxed);
                })
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn uneven_jobs_run_nested_calls_inline() {
        for threads in [2, 3, 8] {
            let inline = with_threads(threads, || {
                parallel_map(13, |i| {
                    uneven(i);
                    let me = std::thread::current().id();
                    let nested = parallel_map(5, |j| (std::thread::current().id(), uneven(j)));
                    max_threads() == 1 && nested.iter().all(|&(id, _)| id == me)
                })
            });
            assert!(inline.iter().all(|&ok| ok), "threads = {threads}");
        }
    }

    #[test]
    fn chunks_mut_claims_uneven_chunks() {
        let fill = |idx: usize, c: &mut [u64]| {
            let cost = uneven(idx);
            for (j, v) in c.iter_mut().enumerate() {
                *v = cost * 1000 + j as u64;
            }
        };
        let mut serial = vec![0u64; 97];
        with_threads(1, || parallel_chunks_mut(&mut serial, 4, fill));
        for threads in [2, 3, 8] {
            let mut par = vec![0u64; 97];
            with_threads(threads, || parallel_chunks_mut(&mut par, 4, fill));
            assert_eq!(par, serial, "threads = {threads}");
        }
        let mut empty: Vec<u64> = Vec::new();
        with_threads(4, || parallel_chunks_mut(&mut empty, 4, fill));
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn worker_panic_reraises_the_original_payload() {
        with_threads(2, || {
            parallel_map(16, |i| {
                if i == 5 {
                    panic!("job {i} failed");
                }
                uneven(i)
            })
        });
    }

    #[test]
    fn worker_panic_stops_the_claiming() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let ran = AtomicUsize::new(0);
        let n = 2_000;
        let caught = std::panic::catch_unwind(|| {
            with_threads(2, || {
                parallel_for(n, |i| {
                    if i == 0 {
                        panic!("first job failed");
                    }
                    ran.fetch_add(1, Ordering::Relaxed);
                    // slow enough that the surviving worker cannot
                    // drain the queue before the panic lands
                    for _ in 0..50 {
                        uneven(12);
                    }
                })
            })
        });
        assert!(caught.is_err());
        let ran = ran.load(Ordering::Relaxed);
        assert!(
            ran < n - 1,
            "the surviving worker ran all {ran} remaining jobs"
        );
    }
}
