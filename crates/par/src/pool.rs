//! Long-lived worker pool for request-serving workloads.
//!
//! [`par_map`](crate::par_map) spawns scoped threads per call — the
//! right trade for one-shot sweeps, but a serving loop dispatching
//! thousands of small batches would pay thread spawn/join on every
//! batch. [`Pool`] keeps a fixed set of workers alive for the life of
//! the process and feeds them jobs through a condvar queue, so
//! consecutive batches reuse warm threads (and whatever thread-local
//! state the OS keeps warm with them).
//!
//! [`Pool::map`] carries the same determinism contract as
//! [`par_map`](crate::par_map): `f` is called exactly once per item and
//! each result is placed by item index, so for a pure `f` the output is
//! bitwise-identical for every worker count, including 1.

use crate::{cancel::Deadline, chunk_size, ThreadBudget};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Locks a pool mutex, recovering from poisoning: every protected
/// structure is either a job queue (a lost job surfaces as a panicked
/// map, never a torn entry) or completion bookkeeping updated by drop
/// guards, so continuing after a worker panic is safe.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

/// A fixed-size set of long-lived worker threads fed through a shared
/// job queue. Workers are spawned at construction and joined on drop;
/// between those points any number of [`Pool::execute`] and
/// [`Pool::map`] calls reuse them.
///
/// A panic inside a job is contained to that job (the worker survives
/// and keeps serving); [`Pool::map`] re-raises it on the calling thread
/// so the contract matches [`par_map`](crate::par_map).
///
/// Do **not** call [`Pool::map`] from inside a pool job of the same
/// pool: the inner map would wait for workers that are all busy running
/// the outer jobs.
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

fn worker_loop(shared: Arc<PoolShared>) {
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Contain job panics so one poisoned request cannot take a
        // worker (and with it the whole service) down. Map jobs carry
        // their own completion guards, so the caller still observes the
        // failure.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

/// Completion bookkeeping for one [`Pool::map`] call.
struct MapSync {
    remaining: usize,
    panicked: bool,
}

struct MapState<T, R> {
    items: Vec<T>,
    chunk: usize,
    cursor: AtomicUsize,
    slots: Mutex<Vec<Option<R>>>,
    sync: Mutex<MapSync>,
    done: Condvar,
}

/// Decrements the job counter when a map job exits — normally or by
/// panic — so the waiting caller can never hang on a dead worker.
struct JobGuard<'a, T, R> {
    state: &'a MapState<T, R>,
}

impl<T, R> Drop for JobGuard<'_, T, R> {
    fn drop(&mut self) {
        let mut sync = lock(&self.state.sync);
        sync.remaining -= 1;
        if std::thread::panicking() {
            sync.panicked = true;
        }
        drop(sync);
        self.state.done.notify_all();
    }
}

impl Pool {
    /// Spawns `budget.resolve()` workers that live until the pool is
    /// dropped.
    pub fn new(budget: ThreadBudget) -> Pool {
        let threads = budget.resolve();
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(shared))
            })
            .collect();
        htmpll_obs::counter!("par", "pool.workers").add(threads as u64);
        Pool {
            shared,
            workers,
            threads,
        }
    }

    /// The worker count this pool was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueues one fire-and-forget job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        htmpll_obs::counter!("par", "pool.jobs").inc();
        lock(&self.shared.state).queue.push_back(Box::new(job));
        self.shared.cv.notify_one();
    }

    /// Maps `f` over `items` on the pool, preserving item order in the
    /// output. Work is pulled in chunks from a shared atomic cursor
    /// (the same self-balancing scheme as
    /// [`par_map`](crate::par_map)); results are placed by item index,
    /// so a pure `f` yields bitwise-identical output for every pool
    /// size.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f` on the calling thread after all
    /// workers have left the call.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        htmpll_obs::counter!("par", "pool.tasks").add(n as u64);
        let jobs = self.threads.min(n);
        let state = Arc::new(MapState {
            items,
            chunk: chunk_size(n, jobs),
            cursor: AtomicUsize::new(0),
            slots: Mutex::new((0..n).map(|_| None).collect()),
            sync: Mutex::new(MapSync {
                remaining: jobs,
                panicked: false,
            }),
            done: Condvar::new(),
        });
        let f = Arc::new(f);
        // Carry the caller's ambient fault scope into the long-lived
        // workers (thread-locals do not cross the queue).
        let fault_scope = htmpll_fault::current_scope();
        for _ in 0..jobs {
            let state = Arc::clone(&state);
            let f = Arc::clone(&f);
            let fault_scope = fault_scope.clone();
            self.execute(move || {
                let _fault = htmpll_fault::scope_guard(fault_scope);
                let _guard = JobGuard { state: &*state };
                loop {
                    let start = state.cursor.fetch_add(state.chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + state.chunk).min(n);
                    let out: Vec<R> = state.items[start..end]
                        .iter()
                        .enumerate()
                        .map(|(i, t)| f(start + i, t))
                        .collect();
                    let mut slots = lock(&state.slots);
                    for (i, r) in out.into_iter().enumerate() {
                        slots[start + i] = Some(r);
                    }
                }
            });
        }
        let mut sync = lock(&state.sync);
        while sync.remaining > 0 {
            sync = state.done.wait(sync).unwrap_or_else(|e| e.into_inner());
        }
        let panicked = sync.panicked;
        drop(sync);
        assert!(!panicked, "pool map job panicked");
        let mut slots = lock(&state.slots);
        slots
            .iter_mut()
            .map(|slot| slot.take().expect("every map slot filled"))
            .collect()
    }

    /// [`Pool::map`] with a cooperative [`Deadline`]: the budget is
    /// checked before every chunk grab and between items, and once it
    /// expires no further item is started. Returns one slot per item —
    /// `Some(r)` for items computed before expiry, `None` for items
    /// skipped after it.
    ///
    /// A `Some` slot holds exactly the bits [`Pool::map`] would have
    /// produced for that item, for any pool size (cancellation decides
    /// *whether* an item runs, never *what* it computes).
    ///
    /// # Panics
    ///
    /// Re-raises a panic from `f` on the calling thread after all
    /// workers have left the call.
    pub fn map_cancellable<T, R, F>(
        &self,
        items: Vec<T>,
        deadline: &Deadline,
        f: F,
    ) -> Vec<Option<R>>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        htmpll_obs::counter!("par", "pool.tasks").add(n as u64);
        let jobs = self.threads.min(n);
        let state = Arc::new(MapState {
            items,
            chunk: chunk_size(n, jobs),
            cursor: AtomicUsize::new(0),
            slots: Mutex::new((0..n).map(|_| None).collect()),
            sync: Mutex::new(MapSync {
                remaining: jobs,
                panicked: false,
            }),
            done: Condvar::new(),
        });
        let f = Arc::new(f);
        // Pool workers are long-lived process threads with no ambient
        // fault scope of their own; carry the caller's scope into each
        // job so scope-gated injection sites behave as if inline.
        let fault_scope = htmpll_fault::current_scope();
        for _ in 0..jobs {
            let state = Arc::clone(&state);
            let f = Arc::clone(&f);
            let deadline = deadline.clone();
            let fault_scope = fault_scope.clone();
            self.execute(move || {
                let _fault = htmpll_fault::scope_guard(fault_scope);
                let _guard = JobGuard { state: &*state };
                loop {
                    if deadline.expired() {
                        break;
                    }
                    let start = state.cursor.fetch_add(state.chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + state.chunk).min(n);
                    let mut out: Vec<Option<R>> = Vec::with_capacity(end - start);
                    for (i, t) in state.items[start..end].iter().enumerate() {
                        // Always finish the first item of a grabbed
                        // chunk so every grab makes progress.
                        if !out.is_empty() && deadline.expired() {
                            break;
                        }
                        out.push(Some(f(start + i, t)));
                    }
                    let mut slots = lock(&state.slots);
                    for (i, r) in out.into_iter().enumerate() {
                        slots[start + i] = r;
                    }
                }
            });
        }
        let mut sync = lock(&state.sync);
        while sync.remaining > 0 {
            sync = state.done.wait(sync).unwrap_or_else(|e| e.into_inner());
        }
        let panicked = sync.panicked;
        drop(sync);
        assert!(!panicked, "pool map job panicked");
        let mut slots = lock(&state.slots);
        let done: Vec<Option<R>> = slots.iter_mut().map(|slot| slot.take()).collect();
        let skipped = done.iter().filter(|s| s.is_none()).count();
        if skipped > 0 {
            htmpll_obs::counter!("par", "cancelled_tasks").add(skipped as u64);
        }
        done
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_serial_and_is_pool_size_invariant() {
        let xs: Vec<f64> = (1..400).map(|i| i as f64 * 0.73).collect();
        let expect: Vec<u64> = xs.iter().map(|&x| (x.sin() * x.sqrt()).to_bits()).collect();
        for t in [1usize, 2, 4, 7] {
            let pool = Pool::new(ThreadBudget::Fixed(t));
            let got = pool.map(xs.clone(), |_, &x: &f64| (x.sin() * x.sqrt()).to_bits());
            assert_eq!(got, expect, "pool size {t}");
        }
    }

    #[test]
    fn pool_survives_many_batches() {
        let pool = Pool::new(ThreadBudget::Fixed(3));
        for rep in 0..50 {
            let xs: Vec<usize> = (0..17).collect();
            let got = pool.map(xs, move |i, &x| {
                assert_eq!(i, x);
                x + rep
            });
            assert_eq!(got.len(), 17);
            assert_eq!(got[5], 5 + rep);
        }
    }

    #[test]
    fn empty_and_single() {
        let pool = Pool::new(ThreadBudget::Fixed(2));
        let empty: Vec<u8> = vec![];
        assert!(pool.map(empty, |_, &x: &u8| x).is_empty());
        assert_eq!(pool.map(vec![9u8], |_, &x| x), vec![9]);
    }

    #[test]
    fn execute_runs_jobs() {
        let pool = Pool::new(ThreadBudget::Fixed(2));
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let hits = Arc::clone(&hits);
            pool.execute(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool); // joins workers, so all jobs have run
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn map_panic_propagates_but_pool_survives() {
        let pool = Pool::new(ThreadBudget::Fixed(2));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0usize, 1, 2, 3], |_, &x| {
                assert!(x != 2, "boom");
                x
            })
        }));
        assert!(result.is_err());
        // The pool keeps serving after a job panicked.
        let ok = pool.map(vec![1usize, 2, 3], |_, &x| x * 2);
        assert_eq!(ok, vec![2, 4, 6]);
    }

    #[test]
    fn map_cancellable_unbounded_matches_map() {
        let pool = Pool::new(ThreadBudget::Fixed(3));
        let xs: Vec<f64> = (1..150).map(|i| i as f64 * 0.59).collect();
        let f = |_: usize, &x: &f64| (x.sin() + x.cbrt()).to_bits();
        let plain = pool.map(xs.clone(), f);
        let cancellable = pool.map_cancellable(xs, &Deadline::none(), f);
        assert_eq!(cancellable.len(), plain.len());
        for (a, b) in plain.iter().zip(&cancellable) {
            assert_eq!(Some(*a), *b);
        }
    }

    #[test]
    fn map_cancellable_partial_is_bitwise_stable() {
        let xs: Vec<f64> = (1..120).map(|i| i as f64 * 0.31).collect();
        let f = |_: usize, &x: &f64| (x.tan() * x.sqrt()).to_bits();
        let full: Vec<u64> = xs.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        for t in [1usize, 4] {
            let pool = Pool::new(ThreadBudget::Fixed(t));
            let d = Deadline::after_checks(20);
            let part = pool.map_cancellable(xs.clone(), &d, f);
            let completed = part.iter().filter(|s| s.is_some()).count();
            assert!(completed > 0, "pool size {t}");
            assert!(
                completed < xs.len(),
                "pool size {t}: 20 checks must expire mid-map"
            );
            for (i, slot) in part.iter().enumerate() {
                if let Some(bits) = slot {
                    assert_eq!(*bits, full[i], "pool size {t} item {i}");
                }
            }
        }
    }

    #[test]
    fn map_cancellable_cancelled_up_front_skips_all() {
        let pool = Pool::new(ThreadBudget::Fixed(2));
        let d = Deadline::token();
        d.cancel();
        let out = pool.map_cancellable((0..40usize).collect(), &d, |_, &x| x);
        assert!(out.iter().all(|s| s.is_none()));
        // The pool still serves normal maps afterwards.
        assert_eq!(pool.map(vec![1usize, 2], |_, &x| x + 1), vec![2, 3]);
    }

    #[test]
    fn uneven_work_lands_in_slots() {
        let pool = Pool::new(ThreadBudget::Fixed(5));
        let xs: Vec<usize> = (0..97).collect();
        let out = pool.map(xs, |_, &x| {
            let iters = if x % 10 == 0 { 20_000 } else { 10 };
            (0..iters).fold(x as f64, |a, _| a + (a * 1e-9).sin())
        });
        assert_eq!(out.len(), 97);
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
