//! The fetch executor: where a claimed page's blocking [`Fetcher`]
//! call runs, and the only point at which crawl workers differ.
//!
//! §1.1's premise is that network latency, not CPU, bounds discovery;
//! the paper's crawler runs "about thirty threads" purely to hide it.
//! A worker ([`crate::session`]) therefore never fetches directly: it
//! *submits* claims to its [`PoolHandle`] and *drains* `(claim,
//! result)` [`Completion`]s from it, and the executor decides what
//! happens in between. There are two, chosen by the pool's size alone:
//!
//! * **size 0 — a pool of this thread.** Submitted jobs wait in a
//!   plain queue inside the handle and [`PoolHandle::next_completion`]
//!   runs the fetch on the calling worker: no thread, no lock, no
//!   clock read, and a fetcher panic unwinds on the worker itself.
//!   The handle asks for one claim batch at a time, only when its
//!   queue is empty ([`PoolHandle::room`]).
//! * **size n > 0 — n fetcher threads.** Plain OS threads (no async
//!   runtime — consistent with the offline `vendor/` toolchain) pop a
//!   shared submission queue, run the blocking fetch, and post the
//!   completion to the mailbox of the handle that submitted it; each
//!   handle keeps its share of ~2 jobs per thread outstanding so
//!   hundreds of fetches ride the wire under a few CPU workers.
//!
//! Ownership model: the pool and its submission queue are shared per
//! run, but every completion lands in the [`PoolHandle`] that
//! submitted the job, so a worker only ever sees its own claims —
//! claim lifecycle (gauges, flush, unclaim) stays worker-local.
//! Determinism: each job carries the attempt number its submitter
//! assigned under the store lock, and fetchers see it via
//! [`Fetcher::fetch_with_ordinal`] — fault injection keys on the
//! submission order, never on completion interleaving or pool size.
//!
//! Locks: the submission queue and the completion mailboxes are leaves
//! taken with no session lock held, and fetcher threads touch no
//! session state at all. Both fetch sites are the `FETCH` blocking point
//! of `lockcheck::rank`, which allows no lock held across the fetch.
//!
//! Shutdown contract: workers cancel or drain all their jobs before
//! exiting (the run then drops the idle pool, joining its threads), so
//! a claim is never abandoned inside the queue.

use crate::frontier::Claim;
use focus_webgraph::{FetchError, FetchedPage, Fetcher};
use lockcheck::{rank, OrderedCondvar, OrderedMutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the executor produced for one submitted claim.
#[derive(Debug)]
pub struct Completion {
    /// The claim as submitted.
    pub claim: Claim,
    /// The attempt number assigned at submission (the fetch's
    /// submission ordinal is `attempt - 1`).
    pub attempt: u64,
    /// The fetch outcome, or the payload of a panic caught on a fetcher
    /// thread — the draining worker re-raises it so a broken fetcher
    /// fails the run exactly like an on-thread fetch does.
    pub outcome: Result<Result<FetchedPage, FetchError>, String>,
}

struct Job {
    claim: Claim,
    attempt: u64,
    dest: Arc<HandleShared>,
}

/// Per-handle completion mailbox.
struct HandleShared {
    completions: OrderedMutex<VecDeque<Completion>>,
    ready: OrderedCondvar,
}

struct PoolShared {
    fetcher: Arc<dyn Fetcher>,
    queue: OrderedMutex<VecDeque<Job>>,
    job_ready: OrderedCondvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn complete(&self, dest: &Arc<HandleShared>, done: Completion) {
        dest.completions.lock().push_back(done);
        dest.ready.notify_one();
    }
}

/// A run's fetch executor. Created at run launch, shared by that run's
/// CPU workers through their [`PoolHandle`]s, dropped at wind-down.
pub struct FetchPool {
    shared: Arc<PoolShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl FetchPool {
    /// Spawn `size` fetcher threads over `fetcher`. With `size == 0`
    /// nothing is spawned and every handle fetches on its own thread.
    pub fn new(fetcher: Arc<dyn Fetcher>, size: usize) -> FetchPool {
        let shared = Arc::new(PoolShared {
            fetcher,
            queue: OrderedMutex::new(rank::POOL_QUEUE, VecDeque::new()),
            job_ready: OrderedCondvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let threads = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fetch-pool-{i}"))
                    .spawn(move || fetcher_thread(&shared))
                    .expect("spawn fetch-pool thread")
            })
            .collect();
        FetchPool { shared, threads }
    }

    /// Fetcher threads in the pool.
    pub fn size(&self) -> usize {
        self.threads.len()
    }

    /// A worker's private submission/completion endpoint.
    pub fn handle(self: &Arc<Self>) -> PoolHandle {
        let exec = if self.threads.is_empty() {
            Executor::OnThread(VecDeque::new())
        } else {
            Executor::Threads {
                dest: Arc::new(HandleShared {
                    completions: OrderedMutex::new(rank::POOL_MAILBOX, VecDeque::new()),
                    ready: OrderedCondvar::new(),
                }),
                outstanding: 0,
                threads: self.threads.len(),
            }
        };
        PoolHandle {
            pool: Arc::clone(&self.shared),
            exec,
        }
    }

    /// Stop the pool: wake every fetcher thread and join them. Idempotent.
    /// Jobs still queued are dropped *silently* — callers must have
    /// cancelled or drained their handles first (the worker wind-down
    /// contract), otherwise their claims would leak as `CLAIMED`.
    pub fn shutdown(&mut self) {
        // Raised under the queue lock: a fetcher checks the flag and
        // parks in one critical section, so it either sees the flag or
        // is already waiting when the notify comes. Raised outside it,
        // the notify could fall between a fetcher's check and its park,
        // and the join below would wait for ever.
        let queue = self.shared.queue.lock();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(queue);
        self.shared.job_ready.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for FetchPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn fetcher_thread(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = shared.job_ready.wait(q);
            }
        };
        let ordinal = job.attempt.saturating_sub(1);
        let oid = job.claim.oid;
        lockcheck::blocking(&rank::FETCH);
        let fetched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.fetcher.fetch_with_ordinal(oid, ordinal)
        }));
        let outcome = match fetched {
            Ok(r) => Ok(r),
            // `as_ref` reaches the payload itself; `&p` would unsize
            // the Box and make the downcasts see `Box<dyn Any>`.
            Err(p) => Err(panic_text(p.as_ref())),
        };
        shared.complete(
            &job.dest,
            Completion {
                claim: job.claim,
                attempt: job.attempt,
                outcome,
            },
        );
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "fetcher panicked".to_string()
    }
}

/// Where one handle's submitted jobs wait, per executor.
enum Executor {
    /// Size 0: jobs queue here until [`PoolHandle::next_completion`]
    /// fetches them on the calling thread.
    OnThread(VecDeque<(Claim, u64)>),
    /// Size n: jobs sit in the shared submission queue or on the wire;
    /// completions come back through this handle's mailbox.
    Threads {
        dest: Arc<HandleShared>,
        outstanding: usize,
        /// Fetcher threads in the pool (sizes this handle's top-up).
        threads: usize,
    },
}

/// One worker's view of the executor: submit claims, drain *your own*
/// completions. Not shared between workers.
pub struct PoolHandle {
    pool: Arc<PoolShared>,
    exec: Executor,
}

impl PoolHandle {
    /// Submit one batch of claims whose attempt numbers start at
    /// `first_attempt` (contiguous, in batch order — the numbering
    /// chaos ticks key on).
    pub fn submit(&mut self, claims: Vec<Claim>, first_attempt: u64) {
        self.enqueue(claims.into_iter().zip(first_attempt..));
    }

    /// Resubmit jobs previously pulled out by [`cancel_unstarted`]
    /// (resume after a pause): each keeps the attempt number it was
    /// originally assigned, so its submission ordinal — and any chaos
    /// fault keyed on it — is unchanged by the round-trip.
    ///
    /// [`cancel_unstarted`]: PoolHandle::cancel_unstarted
    pub fn resubmit(&mut self, jobs: Vec<(Claim, u64)>) {
        self.enqueue(jobs.into_iter());
    }

    fn enqueue(&mut self, jobs: impl Iterator<Item = (Claim, u64)>) {
        match &mut self.exec {
            Executor::OnThread(queue) => queue.extend(jobs),
            Executor::Threads {
                dest, outstanding, ..
            } => {
                let mut q = self.pool.queue.lock();
                for (claim, attempt) in jobs {
                    q.push_back(Job {
                        claim,
                        attempt,
                        dest: Arc::clone(dest),
                    });
                    *outstanding += 1;
                    self.pool.job_ready.notify_one();
                }
            }
        }
    }

    /// Jobs submitted through this handle and not yet drained or
    /// cancelled.
    pub fn outstanding(&self) -> usize {
        match &self.exec {
            Executor::OnThread(queue) => queue.len(),
            Executor::Threads { outstanding, .. } => *outstanding,
        }
    }

    /// How many claims the caller should submit now, given its claim
    /// batch size and the number of workers sharing the pool. On-thread,
    /// one full batch whenever the queue has run empty — one claim
    /// critical section per `batch` pages. With fetcher threads, the
    /// top-up toward this worker's share of ~2 jobs per thread (never
    /// below one batch, or a tiny pool would defeat batching), so a
    /// completing thread always finds its next job queued.
    pub fn room(&self, batch: usize, workers: usize) -> usize {
        match &self.exec {
            Executor::OnThread(queue) if queue.is_empty() => batch,
            Executor::OnThread(_) => 0,
            Executor::Threads {
                outstanding,
                threads,
                ..
            } => {
                let target = batch.max((threads * 2).div_ceil(workers));
                target.saturating_sub(*outstanding).min(batch)
            }
        }
    }

    /// Next completion for this handle. On-thread it *is* the fetch:
    /// the oldest queued job runs on the caller (`timeout` is unused)
    /// and `None` means the queue is empty. With fetcher threads it
    /// waits up to `timeout`; `None` means nothing is outstanding or
    /// nothing completed in time — the caller's loop uses the timeout
    /// to stay responsive to commands.
    pub fn next_completion(&mut self, timeout: Duration) -> Option<Completion> {
        match &mut self.exec {
            Executor::OnThread(queue) => {
                let (claim, attempt) = queue.pop_front()?;
                let ordinal = attempt.saturating_sub(1);
                lockcheck::blocking(&rank::FETCH);
                let outcome = Ok(self.pool.fetcher.fetch_with_ordinal(claim.oid, ordinal));
                Some(Completion {
                    claim,
                    attempt,
                    outcome,
                })
            }
            Executor::Threads {
                dest, outstanding, ..
            } => {
                if *outstanding == 0 {
                    return None;
                }
                let mut c = dest.completions.lock();
                if c.is_empty() {
                    c = dest.ready.wait_timeout(c, timeout).0;
                }
                let done = c.pop_front();
                if done.is_some() {
                    *outstanding -= 1;
                }
                done
            }
        }
    }

    /// Pull this handle's not-yet-started jobs back out, in submission
    /// order. Jobs already picked up by a fetcher thread are *not*
    /// returned — they will still complete and must be drained. Used
    /// by pause (hold and resubmit) and stop (unclaim).
    pub fn cancel_unstarted(&mut self) -> Vec<(Claim, u64)> {
        match &mut self.exec {
            Executor::OnThread(queue) => queue.drain(..).collect(),
            Executor::Threads {
                dest, outstanding, ..
            } => {
                let mut q = self.pool.queue.lock();
                let mut mine = Vec::new();
                q.retain_mut(|j| {
                    if Arc::ptr_eq(&j.dest, dest) {
                        mine.push((j.claim.clone(), j.attempt));
                        false
                    } else {
                        true
                    }
                });
                *outstanding -= mine.len();
                mine
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_webgraph::chaos::{ChaosFetcher, ChaosSchedule, Fault, FaultProfile};
    use focus_webgraph::{SimFetcher, WebConfig, WebGraph};
    use std::collections::BTreeSet;

    fn sim() -> Arc<SimFetcher> {
        Arc::new(SimFetcher::new(
            Arc::new(WebGraph::generate(WebConfig::tiny(5))),
            None,
        ))
    }

    fn claims_for(f: &SimFetcher, n: usize) -> Vec<Claim> {
        f.graph()
            .pages()
            .iter()
            .take(n)
            .map(|p| Claim {
                oid: p.oid,
                url: p.url.clone(),
                numtries: 0,
                log_relevance: 0.0,
            })
            .collect()
    }

    #[test]
    fn completions_cover_every_submission() {
        let sim = sim();
        let pool = Arc::new(FetchPool::new(sim.clone(), 8));
        let mut h = pool.handle();
        let claims = claims_for(&sim, 50);
        let want: BTreeSet<_> = claims.iter().map(|c| c.oid).collect();
        h.submit(claims, 1);
        let mut got = BTreeSet::new();
        while h.outstanding() > 0 {
            if let Some(done) = h.next_completion(Duration::from_secs(5)) {
                got.insert(done.claim.oid);
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn handles_are_isolated() {
        let sim = sim();
        let pool = Arc::new(FetchPool::new(sim.clone(), 4));
        let mut a = pool.handle();
        let mut b = pool.handle();
        let claims = claims_for(&sim, 20);
        let a_oids: BTreeSet<_> = claims[..10].iter().map(|c| c.oid).collect();
        a.submit(claims[..10].to_vec(), 1);
        b.submit(claims[10..].to_vec(), 11);
        let mut got_a = BTreeSet::new();
        while a.outstanding() > 0 {
            if let Some(done) = a.next_completion(Duration::from_secs(5)) {
                got_a.insert(done.claim.oid);
            }
        }
        assert_eq!(got_a, a_oids, "a only sees its own submissions");
        while b.outstanding() > 0 {
            b.next_completion(Duration::from_secs(5));
        }
    }

    #[test]
    fn cancel_unstarted_returns_only_unstarted_jobs() {
        // One slow thread: submit more than it can start, then cancel.
        let graph = Arc::new(WebGraph::generate(WebConfig::tiny(5)));
        let slow = Arc::new(SimFetcher::new(
            Arc::clone(&graph),
            Some(Duration::from_millis(20)),
        ));
        let pool = Arc::new(FetchPool::new(slow.clone(), 1));
        let mut h = pool.handle();
        let claims = claims_for(&slow, 30);
        h.submit(claims, 1);
        std::thread::sleep(Duration::from_millis(5));
        let cancelled = h.cancel_unstarted();
        assert!(!cancelled.is_empty(), "queue should still hold jobs");
        // Whatever was in flight still completes and must be drained.
        let mut completed = 0;
        while h.outstanding() > 0 {
            if h.next_completion(Duration::from_secs(5)).is_some() {
                completed += 1;
            }
        }
        assert_eq!(completed + cancelled.len(), 30, "every job accounted for");
    }

    /// The satellite regression: replaying one submission schedule
    /// through pool sizes 0 (on-thread), 1 and 64 injects the
    /// *identical* fault set — chaos keys on submission ordinals, not
    /// on the executor or its completion order.
    #[test]
    fn chaos_fault_set_is_identical_at_pool_sizes_1_and_64() {
        let run = |pool_size: usize| -> BTreeSet<(u64, u64)> {
            let sim = sim();
            let mut schedule = ChaosSchedule::new(42);
            for sid in sim.graph().pages().iter().map(|p| p.server) {
                schedule = schedule.with_profile(sid, FaultProfile::Flaky { p: 0.5 });
            }
            let chaos = Arc::new(ChaosFetcher::new(sim.clone(), schedule));
            let pool = Arc::new(FetchPool::new(chaos, pool_size));
            let mut h = pool.handle();
            // A fixed submission schedule: every page, twice, in page
            // order — attempts 1..=2n assigned at submission.
            let claims = claims_for(&sim, sim.graph().pages().len());
            let n = claims.len() as u64;
            h.submit(claims.clone(), 1);
            h.submit(claims, n + 1);
            let mut faults = BTreeSet::new();
            while h.outstanding() > 0 {
                if let Some(done) = h.next_completion(Duration::from_secs(10)) {
                    if matches!(done.outcome, Ok(Err(FetchError::Timeout(_)))) {
                        faults.insert((done.claim.oid.raw(), done.attempt));
                    }
                }
            }
            faults
        };
        let serial = run(1);
        assert!(!serial.is_empty(), "flaky p=0.5 must inject something");
        for size in [0, 64] {
            assert_eq!(
                serial,
                run(size),
                "injected-fault set must not depend on pool size ({size})"
            );
        }
    }

    /// Documented `ChaosSchedule::fault` purity is what the identical
    /// fault set above rests on; spot-check it for an ordinal directly.
    #[test]
    fn chaos_fault_depends_only_on_submission_ordinal() {
        let sim = sim();
        let sid = sim.graph().pages()[0].server;
        let schedule = ChaosSchedule::new(7).with_profile(sid, FaultProfile::Flaky { p: 0.5 });
        let oid = sim.graph().pages()[0].oid;
        let a = schedule.fault(sid, oid, 3);
        let b = schedule.fault(sid, oid, 3);
        assert_eq!(a, b);
        assert!(matches!(a, Fault::None | Fault::Timeout | Fault::Delay(_)));
    }

    #[test]
    fn fetcher_panic_surfaces_as_err_completion() {
        struct Bomb;
        impl Fetcher for Bomb {
            fn fetch(&self, _oid: focus_types::Oid) -> Result<FetchedPage, FetchError> {
                panic!("boom");
            }
            fn fetch_count(&self) -> u64 {
                0
            }
        }
        let sim = sim();
        let pool = Arc::new(FetchPool::new(Arc::new(Bomb), 2));
        let mut h = pool.handle();
        h.submit(claims_for(&sim, 1), 1);
        let done = h
            .next_completion(Duration::from_secs(5))
            .expect("completion");
        assert_eq!(done.outcome.unwrap_err(), "boom");
    }
}
