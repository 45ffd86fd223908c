//! Type-erased jobs and completion latches — the plumbing both pools share.
//!
//! A *job* is a closure that will be executed exactly once, possibly on another
//! worker thread.  For `join` the closure lives on the caller's stack
//! ([`StackJob`]); the caller guarantees it does not return until the job has run
//! (it waits on the job's [`Latch`]), which is what makes the raw-pointer
//! [`JobRef`] sound.  Panics inside a job are caught, carried across threads, and
//! resumed in the thread that waits for the result, matching `std::thread::join`
//! semantics.

use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};

/// A completion flag that supports both spinning probes (for helping waiters) and
/// blocking waits (for external callers).
#[derive(Debug, Default)]
pub struct Latch {
    set: AtomicBool,
    mutex: Mutex<()>,
    cond: Condvar,
}

impl Latch {
    /// Create an unset latch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the latch as set and wake any blocked waiters.
    pub fn set(&self) {
        // Stored under the mutex, so a waiter that sees the flag can wait for
        // this thread to leave the latch (see `probe`) before freeing it.
        // Release pairs with the Acquire in `probe`/`wait`: the job's result
        // is visible to the waiter that observes `set == true`.
        let _guard = self.mutex.lock();
        self.set.store(true, Ordering::Release);
        self.cond.notify_all();
    }

    /// Non-blocking check.
    ///
    /// A `true` answer takes the mutex once before returning, so the setter
    /// has released it and no longer touches the latch.
    pub fn probe(&self) -> bool {
        if !self.set.load(Ordering::Acquire) {
            return false;
        }
        drop(self.mutex.lock());
        true
    }

    /// Block the calling thread until the latch is set.
    pub fn wait(&self) {
        // Re-check the flag directly under the guard: `probe` would take the
        // mutex a second time and deadlock.
        let mut guard = self.mutex.lock();
        while !self.set.load(Ordering::Acquire) {
            self.cond.wait(&mut guard);
        }
    }
}

/// Object-safe execution hook implemented by concrete job types.
///
/// # Safety
///
/// `execute` consumes the job: it must be called at most once, and the pointee
/// must stay alive until the call returns.
pub unsafe trait Job {
    /// Execute the job.
    ///
    /// # Safety
    ///
    /// `this` must point to a live instance that has not been executed yet.
    unsafe fn execute(this: *const Self);
}

/// A type-erased pointer to a [`Job`], sendable to another worker.
///
/// The creator is responsible for keeping the pointee alive until the job has
/// executed (for [`StackJob`] this is enforced by waiting on its latch before the
/// stack frame is left).
#[derive(Debug, Clone, Copy)]
pub struct JobRef {
    pointer: *const (),
    execute_fn: unsafe fn(*const ()),
}

// SAFETY: a JobRef is only a pointer plus a function pointer; the synchronisation
// that makes dereferencing it sound is provided by the pools (a job is executed
// exactly once, and its owner keeps it alive until its latch is set).
unsafe impl Send for JobRef {}
unsafe impl Sync for JobRef {}

impl JobRef {
    /// Erase a concrete job.
    ///
    /// # Safety
    ///
    /// `data` must stay valid until [`JobRef::execute`] has been called exactly once.
    pub unsafe fn new<T: Job>(data: *const T) -> JobRef {
        JobRef {
            pointer: data as *const (),
            execute_fn: |ptr| T::execute(ptr as *const T),
        }
    }

    /// Execute the job.
    ///
    /// # Safety
    ///
    /// Must be called exactly once, while the pointee is still alive.
    pub unsafe fn execute(self) {
        (self.execute_fn)(self.pointer)
    }
}

/// A join-style job that lives on the spawning thread's stack.
///
/// Holds the closure before execution and the (panic-carrying) result afterwards;
/// the latch signals the transition.
pub struct StackJob<F, R> {
    latch: Latch,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
}

// SAFETY: access to `func`/`result` is serialised by the latch protocol — the
// executor writes them before setting the latch, the owner reads them only after
// observing the latch set (or executes the job itself).
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    /// Wrap a closure.
    pub fn new(func: F) -> Self {
        StackJob {
            latch: Latch::new(),
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
        }
    }

    /// The job's completion latch.
    pub fn latch(&self) -> &Latch {
        &self.latch
    }

    /// Erase this job into a [`JobRef`].
    ///
    /// # Safety
    ///
    /// The caller must keep `self` alive and un-moved until the job has executed
    /// (i.e. until [`Latch::probe`] returns true).
    pub unsafe fn as_job_ref(&self) -> JobRef {
        JobRef::new(self)
    }

    /// Take the result after the latch has been set, propagating panics from the
    /// executing thread.
    ///
    /// # Panics
    ///
    /// Resumes the job's panic if the closure panicked; panics if called before
    /// the job ran.
    pub fn into_result(self) -> R {
        assert!(
            self.latch.probe(),
            "into_result called before the job completed"
        );
        let result = self
            .result
            .into_inner()
            .expect("completed job must have stored a result");
        match result {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

// SAFETY: `execute` is called exactly once (pool invariant), so taking the closure
// out of the UnsafeCell and writing the result races with nothing; the latch's
// Release store publishes the result to the waiting owner.
unsafe impl<F, R> Job for StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    unsafe fn execute(this: *const Self) {
        let this = &*this;
        let func = (*this.func.get())
            .take()
            .expect("a StackJob must not be executed twice");
        let result = panic::catch_unwind(AssertUnwindSafe(func));
        *this.result.get() = Some(result);
        this.latch.set();
    }
}

/// A heap-allocated fire-and-forget job (used by `install` and `spawn`).
pub struct HeapJob<F> {
    func: F,
}

impl<F> HeapJob<F>
where
    F: FnOnce() + Send,
{
    /// Allocate the job and erase it into a [`JobRef`].  The allocation is
    /// reclaimed when the job executes.
    pub fn into_job_ref(func: F) -> JobRef {
        let boxed = Box::new(HeapJob { func });
        let ptr = Box::into_raw(boxed);
        // SAFETY: the Box is leaked here and reconstructed exactly once in
        // `execute`, which the pools call exactly once per JobRef.
        unsafe { JobRef::new(ptr as *const HeapJob<F>) }
    }
}

// SAFETY: executed exactly once; reconstructs and drops the Box it was leaked from.
unsafe impl<F> Job for HeapJob<F>
where
    F: FnOnce() + Send,
{
    unsafe fn execute(this: *const Self) {
        let boxed = Box::from_raw(this as *mut HeapJob<F>);
        (boxed.func)();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn latch_probe_and_wait() {
        let latch = Arc::new(Latch::new());
        assert!(!latch.probe());
        let l2 = Arc::clone(&latch);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            l2.set();
        });
        latch.wait();
        assert!(latch.probe());
        handle.join().unwrap();
        // Waiting on an already-set latch returns immediately.
        latch.wait();
    }

    #[test]
    fn stack_job_runs_and_returns_result() {
        let job = StackJob::new(|| 6 * 7);
        let job_ref = unsafe { job.as_job_ref() };
        assert!(!job.latch().probe());
        unsafe { job_ref.execute() };
        assert!(job.latch().probe());
        assert_eq!(job.into_result(), 42);
    }

    #[test]
    fn stack_job_executed_on_another_thread() {
        let job = StackJob::new(|| "hello".to_string());
        let job_ref = unsafe { job.as_job_ref() };
        std::thread::scope(|s| {
            s.spawn(move || unsafe { job_ref.execute() });
        });
        job.latch().wait();
        assert_eq!(job.into_result(), "hello");
    }

    #[test]
    fn stack_job_propagates_panics() {
        let job: StackJob<_, ()> = StackJob::new(|| panic!("boom"));
        let job_ref = unsafe { job.as_job_ref() };
        unsafe { job_ref.execute() };
        assert!(job.latch().probe(), "latch must be set even on panic");
        let caught = panic::catch_unwind(AssertUnwindSafe(|| job.into_result()));
        assert!(caught.is_err());
    }

    #[test]
    fn heap_job_runs_and_frees_itself() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let job_ref = HeapJob::into_job_ref(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        unsafe { job_ref.execute() };
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "before the job completed")]
    fn into_result_before_completion_panics() {
        let job = StackJob::new(|| 1);
        let _ = job.into_result();
    }
}
