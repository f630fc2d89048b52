//! Pooled data parallelism for CPU kernels.
//!
//! All heavy kernels in this crate (and the layers built on top of it) fan
//! work out through the helpers here. The design contract is **bit-exact
//! determinism**: every output element is computed by exactly one worker
//! using the same per-element instruction sequence as the serial loop, so
//! results are identical for any thread count — `DDNN_THREADS=1` and
//! `DDNN_THREADS=4` must produce the same bytes.
//!
//! **One cut-off.** Every helper takes the caller's `work` estimate in
//! multiply–accumulate equivalents (one XNOR word operation counts as 64)
//! and runs inline on the calling thread below [`MIN_PAR_WORK`]; call
//! sites carry no threshold of their own. A site whose parallel form is
//! intrinsically dearer scales the estimate it passes, not the cut-off.
//!
//! **One pool.** Calls above the cut-off share one process-wide pool of
//! persistent workers, grown lazily to the largest fan-out requested so
//! far — a process that never crosses the cut-off has none. A call splits
//! into shares that the submitting thread and the workers claim from a
//! common cursor, so the submitter always takes part and progress never
//! depends on a free worker: with every worker busy the call degenerates
//! to the serial loop. Workers live for the rest of the process and are
//! never joined; a panicking share is caught where it ran and re-raised on
//! its own submitter, so it neither kills a worker nor reaches any other
//! caller.
//!
//! A thread-local flag marks threads that are running a share, so kernels
//! *called from inside* a parallel region run serially instead of
//! oversubscribing the machine with nested fan-outs.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Work, in multiply–accumulate equivalents, below which a call runs
/// inline on the calling thread.
///
/// Set from the pool round trip (`measure_pool_round_trip` below: push a
/// ticket, wake one sleeping worker, have it claim a share): ≈ 7 µs on an
/// idle two-core AVX-512 host, against ≈ 21 f32 MACs/ns inline for the
/// register-tiled GEMM on the paper's device conv (≈ 7–8 on the baseline
/// `sse2` clone, ≈ 12 on `avx2`). 2²¹ MACs are then ≈ 100 µs ≈ 14 round
/// trips, so a dispatch costs at most ≈ 7 % at the cut-off and less above
/// it (≈ 3 % on the baseline clone) — and the round trip only grows when
/// the runtime's node threads already hold every core. The per-sample
/// kernels of inference (device conv 1.1e5, edge conv 8.8e5) sit below
/// it; batch-sized work (a 50-sample device section, 5.5e6) sits
/// above.
const MIN_PAR_WORK: usize = 1 << 21;

thread_local! {
    /// True while the current thread runs a share (prevents nesting).
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// RAII guard marking the current thread as running a share.
struct PoolGuard {
    prev: bool,
}

impl PoolGuard {
    fn enter() -> Self {
        PoolGuard { prev: IN_POOL.replace(true) }
    }
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        IN_POOL.set(self.prev);
    }
}

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Number of threads a data-parallel kernel may spread over.
///
/// Honours the `DDNN_THREADS` environment variable (clamped to `1..=256`
/// and re-read on every call, so tests can change it at runtime); defaults
/// to [`std::thread::available_parallelism`]. Returns `1` on a thread that
/// is running a share so parallel kernels never nest.
pub fn num_threads() -> usize {
    if IN_POOL.with(Cell::get) {
        return 1;
    }
    match std::env::var("DDNN_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .map_or_else(default_threads, |n| n.min(256)),
        Err(_) => default_threads(),
    }
}

/// Threads a call over `count` items worth `work` MAC-equivalents spreads
/// over; `1` means inline. The cut-off is tested first, so per-sample
/// kernels never pay for the environment lookup.
fn fan_out(count: usize, work: usize) -> usize {
    if work < MIN_PAR_WORK || count < 2 {
        return 1;
    }
    num_threads().min(count)
}

static POOLED_DISPATCHES: AtomicUsize = AtomicUsize::new(0);

/// Calls that went through the pool since the process started — a relaxed
/// statistic for tests and traces; everything else ran inline.
pub fn pooled_dispatches() -> usize {
    POOLED_DISPATCHES.load(Ordering::Relaxed)
}

/// One call in flight: `shares` invocations of `task`, claimed one at a
/// time through `next` by the submitter and any worker holding a ticket.
struct Job {
    /// The submitter's closure with its lifetime erased. Dereferenced only
    /// for a share claimed below `shares`; [`run_shares`] does not return
    /// before every such share is counted in `progress`.
    task: *const (dyn Fn(usize) + Sync),
    shares: usize,
    next: AtomicUsize,
    progress: Mutex<Progress>,
    finished: Condvar,
}

#[derive(Default)]
struct Progress {
    done: usize,
    panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: `task` points at a `Sync` closure, so calling it from several
// threads at once is sound, and it is only dereferenced while its
// submitter is blocked in `run_shares` (see the field's contract), so the
// pointee outlives every use. All other fields are `Send + Sync`.
unsafe impl Send for Job {}
// SAFETY: as above.
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs shares until none are left, then reports them done.
    fn work(&self) {
        let _guard = PoolGuard::enter();
        let mut ran = 0;
        let mut panic = None;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.shares {
                break;
            }
            // SAFETY: share `i < shares` is claimed and not yet counted in
            // `progress.done`, so the submitter is still blocked in
            // `run_shares` and the closure it lent is alive.
            let task = unsafe { &*self.task };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(i))) {
                panic.get_or_insert(payload);
            }
            ran += 1;
        }
        if ran == 0 {
            return;
        }
        let mut progress = self.progress.lock().expect(PROGRESS_LOCK);
        progress.done += ran;
        if progress.panic.is_none() {
            progress.panic = panic;
        }
        if progress.done == self.shares {
            self.finished.notify_one();
        }
    }
}

/// The process-wide pool: a queue of tickets (one per helper a call asked
/// for) and the workers that serve it.
struct Pool {
    state: Mutex<PoolState>,
    ticket: Condvar,
}

struct PoolState {
    tickets: VecDeque<Arc<Job>>,
    workers: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState { tickets: VecDeque::new(), workers: 0 }),
    ticket: Condvar::new(),
};

const POOL_LOCK: &str = "no task runs under the pool lock";
const PROGRESS_LOCK: &str = "no task runs under the progress lock";

fn worker_loop() {
    let mut state = POOL.state.lock().expect(POOL_LOCK);
    loop {
        match state.tickets.pop_front() {
            Some(job) => {
                drop(state);
                job.work();
                drop(job);
                state = POOL.state.lock().expect(POOL_LOCK);
            }
            None => state = POOL.ticket.wait(state).expect(POOL_LOCK),
        }
    }
}

/// Runs `task(i)` exactly once for every `i in 0..shares`, on the calling
/// thread and up to `helpers` pool workers, and returns when all are done.
/// A panic in any share is re-raised here once the rest have finished.
fn run_shares(shares: usize, helpers: usize, task: &(dyn Fn(usize) + Sync)) {
    POOLED_DISPATCHES.fetch_add(1, Ordering::Relaxed);
    // SAFETY: only the trait object's lifetime bound changes. The pointer
    // is dereferenced under `Job::task`'s contract, which the wait below
    // upholds: this function does not return (or unwind — nothing between
    // here and the wait panics on behalf of `task`) while a share runs.
    let task: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    let job = Arc::new(Job {
        task,
        shares,
        next: AtomicUsize::new(0),
        progress: Mutex::new(Progress::default()),
        finished: Condvar::new(),
    });
    {
        let mut state = POOL.state.lock().expect(POOL_LOCK);
        while state.workers < helpers {
            // Detached on purpose: workers serve the whole process and
            // hide no panic (shares are caught in `Job::work`). If the OS
            // refuses a thread the submitter simply does more itself.
            let name = format!("ddnn-pool-{}", state.workers);
            if std::thread::Builder::new().name(name).spawn(worker_loop).is_err() {
                break;
            }
            state.workers += 1;
        }
        state.tickets.extend((0..helpers).map(|_| Arc::clone(&job)));
    }
    for _ in 0..helpers {
        POOL.ticket.notify_one();
    }
    job.work();
    let mut progress = job.progress.lock().expect(PROGRESS_LOCK);
    while progress.done < shares {
        progress = job.finished.wait(progress).expect(PROGRESS_LOCK);
    }
    if let Some(payload) = progress.panic.take() {
        drop(progress);
        panic::resume_unwind(payload);
    }
}

/// Splits `data` — consecutive items of `item_width` elements each — into
/// contiguous per-thread chunks and runs `f(first_item_index, chunk)` on
/// each chunk concurrently. `work` is the whole call's cost in
/// MAC-equivalents.
///
/// Below the cut-off (or with one thread, or one item) this degenerates to
/// `f(0, data)` on the calling thread. Each item is written by exactly one
/// thread and the per-item computation is the caller's own serial loop, so
/// the result is independent of the thread count.
pub fn par_item_chunks_mut<F>(data: &mut [f32], item_width: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if data.is_empty() || item_width == 0 {
        return;
    }
    let count = data.len() / item_width;
    let workers = fan_out(count, work);
    if workers <= 1 {
        f(0, data);
        return;
    }
    let per = count.div_ceil(workers);
    let chunks: Vec<Mutex<&mut [f32]>> =
        data.chunks_mut(per * item_width).map(Mutex::new).collect();
    run_shares(chunks.len(), workers - 1, &|ci| {
        let mut chunk = chunks[ci].lock().expect("each chunk is locked by its one share");
        f(ci * per, &mut chunk);
    });
}

/// Applies `f` to every index in `0..count` and returns the results in
/// index order. `work` is the whole call's cost in MAC-equivalents; below
/// the cut-off this is the serial `map` on the calling thread.
///
/// Indices are handed out dynamically (good for items of uneven cost, e.g.
/// per-device model sections of different depth), but each index is
/// computed exactly once and results are stored by index, so the output is
/// independent of thread count and scheduling.
pub fn par_map_indexed<R, F>(count: usize, work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    match fan_out(count, work) {
        1 => (0..count).map(f).collect(),
        workers => pooled_map(count, workers, f),
    }
}

/// The pooled form of the two maps: one share per index, results stored by
/// index.
fn pooled_map<R: Send>(count: usize, workers: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
    run_shares(count, workers - 1, &|i| {
        let r = f(i);
        *slots[i].lock().expect("each slot is locked by its one share") = Some(r);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("each slot is locked by its one share")
                .expect("run_shares returned, so every index ran")
        })
        .collect()
}

/// Applies `f` to every element of `items` concurrently, returning the
/// per-item results in order. `work` is the whole call's cost in
/// MAC-equivalents; below the cut-off this is the serial loop.
///
/// This is the mutable-access fan-out used for independent model sections:
/// each item is visited by exactly one thread, so `f` may freely mutate it.
pub fn par_map_mut<T, R, F>(items: &mut [T], work: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let workers = fan_out(items.len(), work);
    if workers <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let slots: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
    pooled_map(slots.len(), workers, |i| {
        f(i, &mut slots[i].lock().expect("each item is locked by its one share"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `work` estimate on the far side of the cut-off.
    const HEAVY: usize = usize::MAX;

    #[test]
    fn num_threads_is_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn par_item_chunks_cover_every_item_once() {
        // 13 items of width 3, incremented once each: no item may be
        // skipped or visited twice regardless of the partition.
        let mut data = vec![0.0f32; 13 * 3];
        par_item_chunks_mut(&mut data, 3, HEAVY, |first, chunk| {
            for (j, item) in chunk.chunks_mut(3).enumerate() {
                for x in item.iter_mut() {
                    *x += (first + j) as f32;
                }
            }
        });
        for (i, item) in data.chunks(3).enumerate() {
            assert!(item.iter().all(|&x| x == i as f32), "item {i}: {item:?}");
        }
    }

    #[test]
    fn par_map_indexed_preserves_order() {
        let out = par_map_indexed(100, HEAVY, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert!(par_map_indexed(0, HEAVY, |i| i).is_empty());
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_orders_results() {
        let mut items: Vec<usize> = (0..57).collect();
        let out = par_map_mut(&mut items, HEAVY, |i, t| {
            *t += 100;
            i
        });
        assert_eq!(out, (0..57).collect::<Vec<_>>());
        assert!(items.iter().enumerate().all(|(i, &t)| t == i + 100));
    }

    #[test]
    fn nested_calls_fall_back_to_serial() {
        // Inside a share `num_threads()` reports 1, so a nested parallel
        // call must not fan out (it would still be correct, but the guard
        // is what bounds total thread count).
        let inner_counts = par_map_indexed(8, HEAVY, |_| num_threads());
        if num_threads() > 1 {
            assert!(inner_counts.iter().all(|&n| n == 1));
        }
    }

    /// The measurement behind [`MIN_PAR_WORK`]; run it on a quiet machine
    /// with `cargo test --release -p ddnn-tensor round_trip -- --ignored
    /// --nocapture`.
    #[test]
    #[ignore = "a timing measurement, not a check"]
    fn measure_pool_round_trip() {
        use std::time::Instant;
        let median = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        // Two shares, one helper, and each share waits for the other to
        // have started — so the call cannot finish before the sleeping
        // worker has woken and claimed its share: what a dispatch costs
        // beyond the work itself. The first call also spawns the worker;
        // skip it.
        let rendezvous = || {
            let started = AtomicUsize::new(0);
            run_shares(2, 1, &|_| {
                started.fetch_add(1, Ordering::SeqCst);
                while started.load(Ordering::SeqCst) < 2 {
                    std::hint::spin_loop();
                }
            });
        };
        rendezvous();
        let round_trip_us = median(
            (0..2000)
                .map(|_| {
                    let t = Instant::now();
                    rendezvous();
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect(),
        );
        // Inline f32 rate on the paper's device GEMM, (4,27) x (27,1024),
        // on the active SIMD tier.
        let (m, k, n) = (4, 27, 1024);
        let (a, b, tier) = (vec![0.5f32; m * k], vec![0.25f32; k * n], crate::simd::active_tier());
        let macs_per_us = median(
            (0..200)
                .map(|_| {
                    let mut out = vec![0.0f32; m * n];
                    let t = Instant::now();
                    crate::gemm::gemm(tier, &a, &b, m, k, n, std::hint::black_box(&mut out));
                    (m * k * n) as f64 / (t.elapsed().as_secs_f64() * 1e6)
                })
                .collect(),
        );
        let cutoff_us = MIN_PAR_WORK as f64 / macs_per_us;
        println!(
            "nproc {}: pool round trip {round_trip_us:.1} us; inline {macs_per_us:.0} MACs/us; \
             MIN_PAR_WORK = {cutoff_us:.0} us of work = {:.0} round trips",
            default_threads(),
            cutoff_us / round_trip_us
        );
    }
}
