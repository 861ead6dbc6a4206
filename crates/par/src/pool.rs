//! The persistent worker pool.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use chambolle_telemetry::{names, Telemetry};

use crate::slice::UnsafeSharedSlice;

/// A job handed to the workers: a lifetime-erased pointer to the caller's
/// closure. Soundness rests on [`ThreadPool::broadcast`] blocking until every
/// worker has finished before the borrow it erases goes out of scope.
#[derive(Clone, Copy)]
struct Job {
    func: *const (dyn Fn(usize) + Sync),
}

// SAFETY: the pointee is `Sync` (asserted by the type) and outlives its use
// (enforced by the completion barrier in `broadcast`).
unsafe impl Send for Job {}

/// Shared pool state behind the mutex.
struct PoolState {
    /// Bumped once per broadcast; workers run the job when they observe a
    /// generation they have not processed yet.
    generation: u64,
    /// The current job, present exactly while a broadcast is in flight.
    job: Option<Job>,
    /// Workers still running the current job.
    active: usize,
    /// Set on drop; workers exit their loop.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    job_cv: Condvar,
    /// The submitting thread parks here until `active` drains to zero.
    done_cv: Condvar,
    /// First panic payload from any worker of the current job.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Cumulative scheduling counters of a pool (monotonic over its lifetime).
///
/// The same numbers flow into telemetry as `par.tasks`, `par.steal_count`
/// and `par.broadcasts` when a handle is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Tasks executed across all parallel calls.
    pub tasks: u64,
    /// Tiles taken from another worker's queue by `parallel_tiles`.
    pub steal_count: u64,
    /// Broadcasts issued (parks/unparks of the whole pool).
    pub broadcasts: u64,
}

#[derive(Default)]
struct StatCells {
    tasks: AtomicU64,
    steal_count: AtomicU64,
    broadcasts: AtomicU64,
}

/// A persistent scoped worker pool: `threads − 1` OS threads spawned at
/// construction plus the submitting thread, parked between calls.
///
/// All parallel methods block until the work is complete, propagate worker
/// panics to the caller, and may borrow stack data (the pool is "scoped" in
/// the `std::thread::scope` sense, without the per-call spawn).
///
/// A pool of 1 thread never spawns and never synchronizes: every method runs
/// its closure inline, so sequential configurations pay zero overhead.
///
/// # Examples
///
/// ```
/// use chambolle_par::ThreadPool;
///
/// let pool = ThreadPool::new(3);
/// assert_eq!(pool.threads(), 3);
/// let sum = std::sync::atomic::AtomicU64::new(0);
/// pool.parallel_for_rows("par.sum", 0..100, 10, |rows| {
///     let local: u64 = rows.map(|r| r as u64).sum();
///     sum.fetch_add(local, std::sync::atomic::Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 4950);
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes broadcasts from multiple submitting threads.
    submit_lock: Mutex<()>,
    stats: StatCells,
    telemetry: Telemetry,
}

impl ThreadPool {
    /// Creates a pool of `threads` total workers (`threads − 1` spawned OS
    /// threads; the caller's thread is worker 0).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or an OS thread cannot be spawned.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                active: 0,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        let handles = (1..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("chambolle-par-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("worker thread must spawn")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            submit_lock: Mutex::new(()),
            stats: StatCells::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Pool with telemetry attached: every parallel call then records its
    /// task count, steals, and a per-stage wall-time span.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches (or replaces) the telemetry handle in place.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Total worker count, including the submitting thread.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Snapshot of the cumulative scheduling counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.stats.tasks.load(Ordering::Relaxed),
            steal_count: self.stats.steal_count.load(Ordering::Relaxed),
            broadcasts: self.stats.broadcasts.load(Ordering::Relaxed),
        }
    }

    /// Runs `f(worker_id)` once on every worker (ids `0..threads()`, the
    /// calling thread being 0) and returns when all are done.
    ///
    /// The closure may borrow from the caller's stack. If any invocation
    /// panics, the panic is re-raised here after every worker has finished
    /// (so borrowed data is never observed after the call returns or
    /// unwinds).
    pub fn broadcast<F: Fn(usize) + Sync>(&self, f: F) {
        if self.handles.is_empty() {
            f(0);
            return;
        }
        self.stats.broadcasts.fetch_add(1, Ordering::Relaxed);
        self.telemetry.counter_add(names::PAR_BROADCASTS, 1);
        // Poison on this lock only means an earlier broadcast propagated a
        // panic while holding it; the serialization guarantee is unaffected.
        let _submit = self
            .submit_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let local: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: the lifetime of `local` is erased, but this function does
        // not return (or unwind) before every worker has finished running
        // the job — see the completion wait below — so the pointee outlives
        // every dereference.
        let job = Job {
            func: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(local as *const _)
            },
        };
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            debug_assert!(state.job.is_none(), "broadcasts are serialized");
            state.job = Some(job);
            state.generation += 1;
            state.active = self.handles.len();
            self.shared.job_cv.notify_all();
        }
        // The submitting thread is worker 0. Catch its panic so we still
        // reach the completion wait: unwinding past the wait would free the
        // borrowed closure while workers may still be running it.
        let main_result = catch_unwind(AssertUnwindSafe(|| f(0)));
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            while state.active > 0 {
                state = self
                    .shared
                    .done_cv
                    .wait(state)
                    .expect("pool state poisoned");
            }
            state.job = None;
        }
        let worker_panic = self
            .shared
            .panic
            .lock()
            .expect("panic slot poisoned")
            .take();
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
        if let Err(payload) = main_result {
            resume_unwind(payload);
        }
    }

    /// Splits `rows` into chunks of `chunk` consecutive indices and runs
    /// `f(sub_range)` for each, distributed over the workers.
    ///
    /// The partition is a pure function of `(rows, chunk)` — scheduling never
    /// changes which rows form a task — so kernels that write disjoint
    /// per-row outputs produce bit-identical results for every thread count.
    ///
    /// `stage` names the wall-time span recorded when telemetry is attached
    /// (e.g. `"par.warp"`).
    pub fn parallel_for_rows<F: Fn(Range<usize>) + Sync>(
        &self,
        stage: &str,
        rows: Range<usize>,
        chunk: usize,
        f: F,
    ) {
        let n = rows.end.saturating_sub(rows.start);
        if n == 0 {
            return;
        }
        let chunk = chunk.max(1);
        let tasks = n.div_ceil(chunk);
        let _span = self.telemetry.span(stage);
        self.stats.tasks.fetch_add(tasks as u64, Ordering::Relaxed);
        self.telemetry.counter_add(names::PAR_TASKS, tasks as u64);
        let task_range = |t: usize| {
            let start = rows.start + t * chunk;
            start..(start + chunk).min(rows.end)
        };
        if self.handles.is_empty() || tasks == 1 {
            for t in 0..tasks {
                f(task_range(t));
            }
            return;
        }
        let next = AtomicUsize::new(0);
        self.broadcast(|_worker| loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= tasks {
                break;
            }
            f(task_range(t));
        });
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements and
    /// runs `f(chunk_index, chunk)` for each, distributed over the workers.
    ///
    /// This is the mutable-output companion of [`parallel_for_rows`]: for an
    /// image of width `w`, `chunk_len = w * rows_per_task` hands each task a
    /// band of whole rows. Chunks are disjoint by construction, so the
    /// closure needs no synchronization.
    ///
    /// [`parallel_for_rows`]: ThreadPool::parallel_for_rows
    pub fn parallel_chunks_mut<T: Send, F: Fn(usize, &mut [T]) + Sync>(
        &self,
        stage: &str,
        data: &mut [T],
        chunk_len: usize,
        f: F,
    ) {
        let len = data.len();
        if len == 0 {
            return;
        }
        let chunk_len = chunk_len.max(1);
        let tasks = len.div_ceil(chunk_len);
        let view = UnsafeSharedSlice::new(data);
        let run_task = |t: usize| {
            let start = t * chunk_len;
            let sub_len = chunk_len.min(len - start);
            // SAFETY: chunk `t` covers `[t*chunk_len, t*chunk_len+sub_len)`;
            // distinct `t` values give disjoint regions, and each task index
            // is executed exactly once.
            let chunk = unsafe { view.slice_mut(start, sub_len) };
            f(t, chunk);
        };
        let _span = self.telemetry.span(stage);
        self.stats.tasks.fetch_add(tasks as u64, Ordering::Relaxed);
        self.telemetry.counter_add(names::PAR_TASKS, tasks as u64);
        if self.handles.is_empty() || tasks == 1 {
            for t in 0..tasks {
                run_task(t);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        self.broadcast(|_worker| loop {
            let t = next.fetch_add(1, Ordering::Relaxed);
            if t >= tasks {
                break;
            }
            run_task(t);
        });
    }

    /// Runs `f(worker_id, tile_index)` once for every `tile_index` in
    /// `0..count` on a work-stealing queue: each worker drains its own
    /// contiguous share first, then steals single tiles from the back of the
    /// most loaded victim's range.
    ///
    /// Every index runs exactly once; only *who* runs it varies, so tile
    /// kernels writing per-tile outputs stay deterministic. `worker_id`
    /// (in `0..threads()`) lets callers keep per-worker scratch buffers.
    pub fn parallel_tiles<F: Fn(usize, usize) + Sync>(&self, stage: &str, count: usize, f: F) {
        if count == 0 {
            return;
        }
        let _span = self.telemetry.span(stage);
        self.stats.tasks.fetch_add(count as u64, Ordering::Relaxed);
        self.telemetry.counter_add(names::PAR_TASKS, count as u64);
        let workers = self.threads();
        if self.handles.is_empty() || count == 1 {
            for i in 0..count {
                f(0, i);
            }
            return;
        }
        // Deterministic contiguous shares: worker w owns
        // [w*count/workers, (w+1)*count/workers).
        let share = |w: usize| (w * count / workers)..((w + 1) * count / workers);
        let queues: Vec<Mutex<Range<usize>>> = (0..workers).map(|w| Mutex::new(share(w))).collect();
        let steals = AtomicU64::new(0);
        self.broadcast(|w| loop {
            let own = {
                let mut q = queues[w].lock().expect("tile queue poisoned");
                if q.start < q.end {
                    q.start += 1;
                    Some(q.start - 1)
                } else {
                    None
                }
            };
            if let Some(i) = own {
                f(w, i);
                continue;
            }
            let stolen = steal_one(&queues, w);
            match stolen {
                Some(i) => {
                    steals.fetch_add(1, Ordering::Relaxed);
                    f(w, i);
                }
                None => break,
            }
        });
        let stolen = steals.into_inner();
        self.stats.steal_count.fetch_add(stolen, Ordering::Relaxed);
        self.telemetry.counter_add(names::PAR_STEALS, stolen);
    }
}

/// Takes one tile from the back of the most loaded victim queue, if any
/// victim still has work.
fn steal_one(queues: &[Mutex<Range<usize>>], thief: usize) -> Option<usize> {
    loop {
        let mut best: Option<usize> = None;
        let mut best_len = 0usize;
        for (victim, queue) in queues.iter().enumerate() {
            if victim == thief {
                continue;
            }
            let q = queue.lock().expect("tile queue poisoned");
            let remaining = q.end.saturating_sub(q.start);
            if remaining > best_len {
                best_len = remaining;
                best = Some(victim);
            }
        }
        let victim = best?;
        let mut q = queues[victim].lock().expect("tile queue poisoned");
        // The victim may have drained between the scan and this lock; rescan.
        if q.start < q.end {
            q.end -= 1;
            return Some(q.end);
        }
    }
}

fn worker_loop(shared: &Shared, worker_id: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen_generation {
                    seen_generation = state.generation;
                    break state.job.expect("generation bumped without a job");
                }
                state = shared.job_cv.wait(state).expect("pool state poisoned");
            }
        };
        // SAFETY: `broadcast` keeps the pointee alive until `active` drains
        // to zero, which happens strictly after this call returns.
        let func = unsafe { &*job.func };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| func(worker_id))) {
            let mut slot = shared.panic.lock().expect("panic slot poisoned");
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut state = shared.state.lock().expect("pool state poisoned");
        state.active -= 1;
        if state.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool state poisoned");
            state.shutdown = true;
            self.shared.job_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            // A worker that panicked outside a job would already have
            // poisoned the state mutex and aborted the test; join errors
            // here mean the thread died after its loop, which is fine.
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        pool.broadcast(|w| {
            assert_eq!(w, 0);
            assert_eq!(std::thread::current().id(), tid);
        });
        // No broadcasts are counted: the inline path never parks workers.
        assert_eq!(pool.stats().broadcasts, 0);
    }

    #[test]
    fn broadcast_runs_every_worker_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.broadcast(|w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn pool_is_reusable_across_many_calls() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.broadcast(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.into_inner(), 300);
        assert_eq!(pool.stats().broadcasts, 100);
    }

    #[test]
    fn parallel_for_rows_covers_every_row_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_rows("par.test", 0..103, 7, |rows| {
            assert!(rows.len() <= 7);
            for r in rows {
                hits[r].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (r, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "row {r}");
        }
        assert_eq!(pool.stats().tasks, 15); // ceil(103 / 7)
    }

    #[test]
    fn parallel_chunks_mut_partitions_exactly() {
        for threads in [1usize, 2, 5] {
            let pool = ThreadPool::new(threads);
            let mut data = vec![0usize; 1000];
            pool.parallel_chunks_mut("par.test", &mut data, 64, |t, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = t * 64 + i;
                }
            });
            let expect: Vec<usize> = (0..1000).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_tiles_runs_each_index_once() {
        for (threads, count) in [(1usize, 5usize), (4, 1), (4, 37), (8, 100), (4, 3)] {
            let pool = ThreadPool::new(threads);
            let hits: Vec<AtomicUsize> = (0..count).map(|_| AtomicUsize::new(0)).collect();
            pool.parallel_tiles("par.test", count, |w, i| {
                assert!(w < threads);
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::Relaxed),
                    1,
                    "tile {i} at threads={threads}, count={count}"
                );
            }
        }
    }

    #[test]
    fn stealing_rebalances_skewed_work() {
        // Tile 0..8 are slow, the rest instant; with 4 workers the first
        // share holds most of the slow work and must get stolen from.
        let pool = ThreadPool::new(4);
        let done = AtomicUsize::new(0);
        pool.parallel_tiles("par.test", 64, |_, i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.into_inner(), 64);
        // Steals are scheduling-dependent but the counter must be tracked.
        let _ = pool.stats().steal_count;
    }

    #[test]
    fn borrowed_stack_data_is_visible_and_mutable_results_flow_back() {
        let pool = ThreadPool::new(3);
        let input = vec![2u64; 300];
        let mut output = vec![0u64; 300];
        pool.parallel_chunks_mut("par.test", &mut output, 50, |t, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = input[t * 50 + i] * 3;
            }
        });
        assert!(output.iter().all(|&v| v == 6));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for_rows("par.test", 0..16, 1, |rows| {
                if rows.start == 7 {
                    panic!("boom in row 7");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool must still be usable afterwards.
        let total = AtomicUsize::new(0);
        pool.parallel_for_rows("par.test", 0..8, 2, |rows| {
            total.fetch_add(rows.len(), Ordering::Relaxed);
        });
        assert_eq!(total.into_inner(), 8);
    }

    #[test]
    fn telemetry_records_tasks_and_stage_span() {
        let tele = Telemetry::null();
        let pool = ThreadPool::new(2).with_telemetry(tele.clone());
        pool.parallel_for_rows("par.stage_x", 0..10, 2, |_| {});
        let snap = tele.snapshot();
        assert_eq!(snap.counter(names::PAR_TASKS), Some(5));
        let span_count = snap
            .get(chambolle_telemetry::span::span_metric_name("par.stage_x").as_str())
            .and_then(|m| m.as_histogram())
            .map(|h| h.count());
        assert_eq!(span_count, Some(1));
    }

    #[test]
    fn zero_length_work_is_a_no_op() {
        let pool = ThreadPool::new(2);
        pool.parallel_for_rows("par.test", 5..5, 4, |_| panic!("must not run"));
        pool.parallel_tiles("par.test", 0, |_, _| panic!("must not run"));
        let mut empty: Vec<u8> = Vec::new();
        pool.parallel_chunks_mut("par.test", &mut empty, 8, |_, _| panic!("must not run"));
        assert_eq!(pool.stats().tasks, 0);
    }
}
