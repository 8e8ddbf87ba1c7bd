//! A lazily-initialised, process-wide pool of search worker threads.
//!
//! The parallel explorer used to `thread::scope`-spawn a fresh set of OS threads for every
//! search; benchmarks and the hybrid engine run thousands of searches, so the spawn/join
//! cost dominated short searches. This pool spawns each worker thread **once** (growing on
//! demand up to the widest search ever requested) and hands them *scoped* jobs: [`run`]
//! blocks until every worker slot has finished, so the job closure may borrow from the
//! caller's stack even though the worker threads are long-lived.
//!
//! The pool executes one job at a time. When a second search arrives while a job is active
//! (overlapping searches from different user threads, or a search nested inside another
//! search's predicate), [`run`] returns `false` and the caller falls back to its own
//! scoped spawn — the pool never blocks a search on an unrelated one and never deadlocks
//! on reentrancy.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// A type-erased pointer to the caller's job closure.
///
/// Safety invariant: the pointee outlives the job's execution because [`run`] does not
/// return before `remaining` hits zero, and no worker dereferences the pointer after
/// decrementing `remaining` for its slot.
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointer is only dereferenced by workers while the job is active (see the
// invariant on `JobPtr`); the pointee itself is `Sync`, so concurrent calls are fine.
unsafe impl Send for JobPtr {}

/// The job currently being executed by the pool, all guarded by the pool mutex.
struct ActiveJob {
    func: JobPtr,
    /// Total worker slots of this job (the job closure is called once per slot index).
    slots: usize,
    /// Next slot index to hand to a worker.
    next_slot: usize,
    /// Slots claimed but not yet finished, plus slots not yet claimed.
    remaining: usize,
    /// First panic payload raised by a slot, re-raised by [`run`] on the caller thread.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

#[derive(Default)]
struct PoolState {
    job: Option<ActiveJob>,
    /// Worker threads spawned so far.
    workers: usize,
}

struct Pool {
    state: Mutex<PoolState>,
    /// Workers wait here for a job with unclaimed slots.
    work_ready: Condvar,
    /// [`run`] waits here for `remaining == 0`.
    job_done: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState::default()),
        work_ready: Condvar::new(),
        job_done: Condvar::new(),
    })
}

fn lock(pool: &Pool) -> MutexGuard<'_, PoolState> {
    // the std mutex can only be poisoned if a worker panics *inside this module's
    // bookkeeping* (job closures run unlocked and are caught); recover rather than poison
    // every future search
    pool.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Execute `job(0), …, job(slots - 1)` on the pool's worker threads, blocking until all
/// calls have returned. Returns `false` without running anything when the pool is already
/// executing another job (the caller should fall back to scoped threads). If a slot panics,
/// the panic is re-raised on the calling thread after the remaining slots finish.
pub(crate) fn run(slots: usize, job: &(dyn Fn(usize) + Sync)) -> bool {
    let pool = pool();
    let mut state = lock(pool);
    if state.job.is_some() {
        return false;
    }
    while state.workers < slots {
        state.workers += 1;
        std::thread::Builder::new()
            .name("rdms-search-worker".into())
            .spawn(move || worker_loop(pool))
            .expect("spawn search worker");
    }
    // SAFETY (lifetime erasure): see `JobPtr` — this function does not return until every
    // slot has finished, so `job` outlives every dereference despite the 'static cast.
    let func: &'static (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
    };
    state.job = Some(ActiveJob {
        func: JobPtr(func),
        slots,
        next_slot: 0,
        remaining: slots,
        panic: None,
    });
    pool.work_ready.notify_all();
    while state.job.as_ref().is_some_and(|j| j.remaining > 0) {
        state = pool.job_done.wait(state).unwrap_or_else(|e| e.into_inner());
    }
    let finished = state.job.take().expect("job present until taken by run()");
    drop(state);
    if let Some(payload) = finished.panic {
        resume_unwind(payload);
    }
    true
}

fn worker_loop(pool: &'static Pool) {
    let mut state = lock(pool);
    loop {
        let claim = state.job.as_mut().and_then(|job| {
            (job.next_slot < job.slots).then(|| {
                job.next_slot += 1;
                (JobPtr(job.func.0), job.next_slot - 1)
            })
        });
        match claim {
            Some((func, slot)) => {
                drop(state);
                // SAFETY: the slot was claimed from the active job, whose closure stays
                // alive until `remaining` reaches zero — which cannot happen before this
                // slot's decrement below.
                let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*func.0)(slot) }));
                state = lock(pool);
                let job = state.job.as_mut().expect("job outlives its running slots");
                if let Err(payload) = result {
                    job.panic.get_or_insert(payload);
                }
                job.remaining -= 1;
                if job.remaining == 0 {
                    pool.job_done.notify_all();
                }
            }
            None => {
                state = pool
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// [`run`] from a test: the pool is process-wide and the test harness runs tests on
    /// several threads, so another test (or a parallel search in one) may hold it. A
    /// refused `run` executes nothing, so retrying it until the pool is free is exact;
    /// the time limit turns a pool that never frees up into a failure, not a hang.
    fn run_when_free(slots: usize, job: &(dyn Fn(usize) + Sync)) -> bool {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !run(slots, job) {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn runs_every_slot_exactly_once_and_is_reusable() {
        for round in 0..3 {
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            let ran = run_when_free(4, &|slot| {
                hits[slot].fetch_add(1, Ordering::SeqCst);
            });
            assert!(ran, "pool must be free in round {round}");
            for (slot, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::SeqCst), 1, "slot {slot}");
            }
        }
    }

    #[test]
    fn jobs_may_borrow_the_callers_stack() {
        let inputs: Vec<usize> = (0..8).collect();
        let total = AtomicUsize::new(0);
        assert!(run_when_free(8, &|slot| {
            total.fetch_add(inputs[slot] * 2, Ordering::SeqCst);
        }));
        assert_eq!(total.load(Ordering::SeqCst), 2 * (0..8).sum::<usize>());
    }

    #[test]
    fn nested_runs_report_busy_instead_of_deadlocking() {
        let inner_result = Mutex::new(None);
        assert!(run_when_free(2, &|slot| {
            if slot == 0 {
                let ran = run(2, &|_| {});
                *inner_result.lock().unwrap() = Some(ran);
            }
        }));
        assert_eq!(
            inner_result.into_inner().unwrap(),
            Some(false),
            "a nested run must be refused, not queued"
        );
    }

    #[test]
    fn slot_panics_resurface_on_the_caller() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_when_free(3, &|slot| {
                if slot == 1 {
                    panic!("boom in slot 1");
                }
            })
        }));
        assert!(caught.is_err());
        // and the pool is usable again afterwards
        assert!(run_when_free(2, &|_| {}));
    }
}
