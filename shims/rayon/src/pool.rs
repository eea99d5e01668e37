//! The persistent executor behind every parallel terminal.
//!
//! One process-wide set of `available_parallelism() - 1` helper threads
//! starts on first use and never exits. A parallel call splits its index
//! space into one contiguous chunk per core, hands the job to the
//! helpers that are idle right now, and runs chunks itself: every
//! participant claims the next unclaimed chunk until none is left. A
//! helper that is busy with another caller's job is skipped, so a call
//! never waits for another call's work, concurrent callers (service
//! workers, sharded device threads, nested calls from inside a chunk)
//! cannot deadlock, and the thread count stays bounded.
//!
//! Idle helpers park; nothing spins. Before returning, the caller
//! withdraws every hand-off no helper has claimed yet, so it only ever
//! waits on helpers that actually took its job.

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread::{self, Thread};

/// Logical CPUs available to this process. std re-reads the cgroup
/// files on every `available_parallelism()` call, so it is read once.
pub(crate) fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Splits `0..n` into `min(num_threads(), n)` contiguous chunks, maps
/// each through `f` on the calling thread and any idle helpers, and
/// returns the results in chunk order. A panic in a chunk is re-raised
/// here with that chunk's own payload (the lowest panicking chunk wins),
/// after every participating helper has finished.
pub(crate) fn map_chunks<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let chunks = num_threads().min(n).max(1);
    let per = n.div_ceil(chunks);
    let results: Vec<Mutex<Option<thread::Result<R>>>> =
        (0..chunks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Run by the caller and by every helper that claims the job. Each
    // chunk is caught, so this never unwinds into a helper's loop.
    let work = || loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= chunks {
            break;
        }
        let range = (c * per).min(n)..((c + 1) * per).min(n);
        let r = panic::catch_unwind(AssertUnwindSafe(|| f(range)));
        *results[c].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
    };
    let job = Job {
        work: &work,
        finished: AtomicUsize::new(0),
        caller: thread::current(),
    };
    {
        let mut join = Join {
            job: &job,
            posted: 0,
        };
        join.post(chunks - 1);
        work();
    }
    results
        .into_iter()
        .map(|slot| {
            match slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every chunk ran before the join")
            {
                Ok(r) => r,
                Err(payload) => panic::resume_unwind(payload),
            }
        })
        .collect()
}

/// One parallel call, shared with the helpers that claim it.
struct Job<'a> {
    /// The chunk-claiming loop.
    work: &'a (dyn Fn() + Sync),
    /// Helpers that claimed this job and have finished with it.
    finished: AtomicUsize,
    /// Unparked by each finishing helper.
    caller: Thread,
}

/// The job as a helper's hand-off slot stores it. The cast only erases
/// the lifetime; [`Join`] keeps the job alive while a helper holds it.
fn erase(job: &Job<'_>) -> *mut Job<'static> {
    job as *const Job<'_> as *mut Job<'static>
}

/// The hand-off value of a helper that is running a job (or failed to
/// start). Never the address of a real job.
fn busy() -> *mut Job<'static> {
    NonNull::dangling().as_ptr()
}

/// A helper thread and its one-job hand-off slot.
///
/// Orderings: a caller posts its job with a `Release` CAS that the
/// helper's `Acquire` load and claim pair with, so the helper sees the
/// job fully built. The helper's `Release` increment of `finished` pairs
/// with the caller's `Acquire` load, so every chunk result it wrote is
/// visible once the caller stops waiting. A withdrawal publishes
/// nothing and needs no ordering.
struct Helper {
    /// Null while idle; a posted job until the helper claims it or its
    /// caller withdraws it; [`busy`] while the helper runs a job.
    handoff: AtomicPtr<Job<'static>>,
    thread: OnceLock<Thread>,
}

impl Helper {
    fn serve(&self) -> ! {
        loop {
            let job = self.handoff.load(Ordering::Acquire);
            // `busy` is only seen before the spawner marks this helper idle.
            if job.is_null() || job == busy() {
                thread::park();
                continue;
            }
            if self
                .handoff
                .compare_exchange(job, busy(), Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue; // withdrawn by its caller
            }
            // SAFETY: the claim above succeeded, so the posting caller
            // cannot withdraw this hand-off. Its `Join` guard does not
            // return, and does not unwind, before `finished` counts every
            // helper that claimed the job, and this helper touches the job
            // only before its own increment below. So the job, and every
            // borrow `work` holds, outlive each use here.
            let job = unsafe { &*job };
            (job.work)();
            let caller = job.caller.clone();
            // Idle again before the caller can return, so its next call
            // finds this helper free.
            self.handoff.store(ptr::null_mut(), Ordering::Release);
            job.finished.fetch_add(1, Ordering::Release);
            caller.unpark();
        }
    }
}

/// The helper threads, started on first use.
fn helpers() -> &'static [Helper] {
    static HELPERS: OnceLock<&'static [Helper]> = OnceLock::new();
    HELPERS.get_or_init(|| {
        let helpers: &'static [Helper] = Box::leak(
            (1..num_threads())
                .map(|_| Helper {
                    handoff: AtomicPtr::new(busy()),
                    thread: OnceLock::new(),
                })
                .collect(),
        );
        for (i, h) in helpers.iter().enumerate() {
            let spawned = thread::Builder::new()
                .name(format!("rayon-helper-{i}"))
                .spawn(move || h.serve());
            // A helper that fails to start stays busy forever, so no
            // caller ever hands it a job. The handles are dropped: helpers
            // serve for the life of the process, like rayon's global pool,
            // and never unwind, since every chunk runs under
            // `catch_unwind`.
            if let Ok(handle) = spawned {
                let _ = h.thread.set(handle.thread().clone());
                h.handoff.store(ptr::null_mut(), Ordering::Release);
            }
        }
        helpers
    })
}

/// Posts a job to idle helpers; on drop (return or unwind) withdraws
/// the hand-offs nobody claimed and waits for the helpers that did.
struct Join<'j, 'a> {
    job: &'j Job<'a>,
    /// Hand-offs posted; each is either withdrawn or finished by drop.
    posted: usize,
}

impl Join<'_, '_> {
    /// Hands the job to at most `want` idle helpers.
    fn post(&mut self, want: usize) {
        let job = erase(self.job);
        for h in helpers() {
            if self.posted == want {
                break;
            }
            if h.handoff
                .compare_exchange(ptr::null_mut(), job, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                self.posted += 1;
                if let Some(t) = h.thread.get() {
                    t.unpark();
                }
            }
        }
    }
}

impl Drop for Join<'_, '_> {
    fn drop(&mut self) {
        if self.posted == 0 {
            return;
        }
        // While this job is posted, only its helper's claim or this
        // withdrawal can replace it, so a failed withdrawal means the
        // helper claimed it and will count itself in `finished`.
        let job = erase(self.job);
        let withdrawn = helpers()
            .iter()
            .filter(|h| {
                h.handoff
                    .compare_exchange(job, ptr::null_mut(), Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            })
            .count();
        let claimed = self.posted - withdrawn;
        while self.job.finished.load(Ordering::Acquire) < claimed {
            thread::park();
        }
    }
}
