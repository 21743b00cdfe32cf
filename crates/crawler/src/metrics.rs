//! The stage clock: where a worker's wall time goes.
//!
//! Each worker owns one slot of its session's `Metrics` and charges
//! every interval of its loop to exactly one [`Stage`] through a
//! `StageClock`, a lap timer: each lap charges the time since the
//! previous one, so the stages partition the worker's time and nothing
//! goes unnamed ([`MetricsSnapshot::covered`]). A slot is counters and
//! fixed-bucket log₂ histograms in atomics that only its worker adds to,
//! so recording takes no lock and allocates nothing; a snapshot sums the
//! slots on read.
//!
//! A stage that holds the store write lock is also charged the logical
//! buffer-pool reads it made there ([`StageStats::reads`]): the claim,
//! the landings, the commit point and both distillation guards. Operator
//! queries take the read lock, so nothing else reads the pool inside
//! those sections and the figure is exact at any worker count.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Number of [`Stage`]s.
pub const STAGES: usize = 13;
/// Histogram buckets: bucket `b > 0` holds laps of `[2^(b-1), 2^b)` ns,
/// the last one everything from ~1 s up.
pub const BUCKETS: usize = 32;

/// One named part of the worker loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Applying steering commands and landing the exchange inbox.
    Drain,
    /// Sizing the fetch executor's room and handing it the claims.
    Room,
    /// The claim critical section (`next_tick`), lock wait included.
    Claim,
    /// Sleeping on an empty frontier while work is in flight elsewhere.
    Idle,
    /// Waiting for the next completion: on-thread, the fetch itself.
    FetchWait,
    /// Taking a completion: classification and buffering.
    LandCompletion,
    /// Landing buffered completions under a guard waited for.
    LandBlocking,
    /// Landing them under a guard taken by `try_write`, or finding the
    /// store busy.
    LandTry,
    /// The WAL commit of a commit point.
    CommitPoint,
    /// Distillation: snapshot of the link graph under the store guard.
    DistillGuard1,
    /// Distillation: the HITS kernel, under no lock.
    DistillKernel,
    /// Distillation: publishing `HUBS`/`AUTH` and the boosts.
    DistillGuard2,
    /// Parked for a pause.
    Park,
}

impl Stage {
    /// Every stage, in loop order.
    pub const ALL: [Stage; STAGES] = [
        Stage::Drain,
        Stage::Room,
        Stage::Claim,
        Stage::Idle,
        Stage::FetchWait,
        Stage::LandCompletion,
        Stage::LandBlocking,
        Stage::LandTry,
        Stage::CommitPoint,
        Stage::DistillGuard1,
        Stage::DistillKernel,
        Stage::DistillGuard2,
        Stage::Park,
    ];

    /// Short name, as the stage line prints it.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Drain => "drain",
            Stage::Room => "room",
            Stage::Claim => "claim",
            Stage::Idle => "idle",
            Stage::FetchWait => "fetch_wait",
            Stage::LandCompletion => "land_completion",
            Stage::LandBlocking => "land_blocking",
            Stage::LandTry => "land_try",
            Stage::CommitPoint => "commit_point",
            Stage::DistillGuard1 => "distill_guard1",
            Stage::DistillKernel => "distill_kernel",
            Stage::DistillGuard2 => "distill_guard2",
            Stage::Park => "park",
        }
    }
}

fn bucket(ns: u64) -> usize {
    (u64::BITS - ns.leading_zeros()).min(BUCKETS as u32 - 1) as usize
}

/// One stage's counters in one worker's slot, on cache lines of its own.
#[repr(align(64))]
#[derive(Default)]
struct Cell {
    count: AtomicU64,
    total_ns: AtomicU64,
    reads: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

#[derive(Default)]
struct WorkerSlot {
    cells: [Cell; STAGES],
    wall_ns: AtomicU64,
}

/// A session's stage clock: one slot per worker.
pub(crate) struct Metrics {
    slots: Box<[WorkerSlot]>,
}

impl Metrics {
    /// Slots for `workers` workers.
    pub(crate) fn new(workers: usize) -> Metrics {
        let slots = (0..workers.max(1)).map(|_| WorkerSlot::default());
        Metrics {
            slots: slots.collect(),
        }
    }

    /// Start worker `worker`'s clock now.
    pub(crate) fn clock(&self, worker: usize) -> StageClock<'_> {
        let now = Instant::now();
        StageClock {
            slot: &self.slots[worker % self.slots.len()],
            started: now,
            last: now,
        }
    }

    /// Every slot summed.
    pub(crate) fn read(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for slot in self.slots.iter() {
            out.worker_ns += slot.wall_ns.load(Relaxed);
            for (cell, s) in slot.cells.iter().zip(&mut out.stages) {
                s.count += cell.count.load(Relaxed);
                s.total_ns += cell.total_ns.load(Relaxed);
                s.reads += cell.reads.load(Relaxed);
                for (b, n) in cell.buckets.iter().zip(&mut s.buckets) {
                    *n += b.load(Relaxed);
                }
            }
        }
        out
    }
}

/// A worker's lap timer over its slot.
pub(crate) struct StageClock<'a> {
    slot: &'a WorkerSlot,
    started: Instant,
    last: Instant,
}

impl StageClock<'_> {
    /// Charge the time since the previous lap to `stage`.
    pub(crate) fn lap(&mut self, stage: Stage) {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        let cell = &self.slot.cells[stage as usize];
        cell.count.fetch_add(1, Relaxed);
        cell.total_ns.fetch_add(ns, Relaxed);
        cell.buckets[bucket(ns)].fetch_add(1, Relaxed);
    }

    /// Charge `reads` logical buffer-pool reads to `stage`.
    pub(crate) fn charge_reads(&self, stage: Stage, reads: u64) {
        let cell = &self.slot.cells[stage as usize];
        cell.reads.fetch_add(reads, Relaxed);
    }

    /// The worker exits: add its wall time, the denominator of
    /// [`MetricsSnapshot::covered`].
    pub(crate) fn finish(&self) {
        let ns = self.started.elapsed().as_nanos() as u64;
        self.slot.wall_ns.fetch_add(ns, Relaxed);
    }
}

/// One stage's laps: how many, their total, and their log₂ histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageStats {
    /// Laps charged.
    pub count: u64,
    /// Their total duration.
    pub total_ns: u64,
    /// Logical buffer-pool reads made under the store write lock.
    pub reads: u64,
    /// Laps per [`BUCKETS`] bucket.
    pub buckets: [u64; BUCKETS],
}

/// The stage clock summed over a session's workers (and, from
/// [`crate::cluster::merge_stats`], over shards).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Per stage, indexed by `Stage as usize`.
    pub stages: [StageStats; STAGES],
    /// Wall time of the workers that have exited.
    pub worker_ns: u64,
}

impl MetricsSnapshot {
    /// One stage's laps.
    pub fn stage(&self, stage: Stage) -> &StageStats {
        &self.stages[stage as usize]
    }

    /// Add `other`'s laps to these.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.worker_ns += other.worker_ns;
        for (s, o) in self.stages.iter_mut().zip(&other.stages) {
            s.count += o.count;
            s.total_ns += o.total_ns;
            s.reads += o.reads;
            for (n, m) in s.buckets.iter_mut().zip(&o.buckets) {
                *n += m;
            }
        }
    }

    /// Share of exited workers' wall time charged to a stage.
    pub fn covered(&self) -> f64 {
        let charged: u64 = self.stages.iter().map(|s| s.total_ns).sum();
        charged as f64 / self.worker_ns.max(1) as f64
    }

    /// µs of `stage` per page, over `pages` pages.
    pub fn us_per_page(&self, stage: Stage, pages: u64) -> f64 {
        self.stage(stage).total_ns as f64 / 1e3 / pages.max(1) as f64
    }

    /// Logical reads of `stage` per page, over `pages` pages.
    pub fn reads_per_page(&self, stage: Stage, pages: u64) -> f64 {
        self.stage(stage).reads as f64 / pages.max(1) as f64
    }

    /// The stage line: µs per page of every stage that ran, and the
    /// reads per page of those that read.
    pub fn line(&self, pages: u64) -> String {
        let ran = Stage::ALL.iter().filter(|&&s| self.stage(s).count > 0);
        let each = ran.map(|&s| {
            let us = format!("{} {:.1}", s.name(), self.us_per_page(s, pages));
            match self.stage(s).reads {
                0 => us,
                _ => format!("{us} ({:.2} reads)", self.reads_per_page(s, pages)),
            }
        });
        format!("µs/page: {}", each.collect::<Vec<_>>().join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_partition_the_clock_and_merge_on_read() {
        let m = Metrics::new(2);
        for w in 0..2 {
            let mut c = m.clock(w);
            c.lap(Stage::Claim);
            std::thread::sleep(std::time::Duration::from_millis(2));
            c.lap(Stage::FetchWait);
            c.charge_reads(Stage::Claim, 3);
            c.finish();
        }
        let s = m.read();
        assert_eq!(s.stage(Stage::Claim).count, 2);
        assert_eq!(s.stage(Stage::FetchWait).count, 2);
        assert!(s.stage(Stage::FetchWait).total_ns >= 4_000_000);
        assert!(s.covered() > 0.95 && s.covered() <= 1.0, "{}", s.covered());
        // Both 2 ms laps sit in the bucket of [2^20, 2^21) ns or above.
        let wait = s.stage(Stage::FetchWait);
        assert_eq!(wait.buckets[21..].iter().sum::<u64>(), 2, "{wait:?}");
        let mut twice = s.clone();
        twice.merge(&s);
        assert_eq!(twice.stage(Stage::Claim).count, 4);
        assert_eq!(twice.stage(Stage::Claim).reads, 12);
        assert!(twice.line(2).contains("fetch_wait"));
        assert!(twice.line(2).contains("(6.00 reads)"), "{}", twice.line(2));
        assert!(!twice.line(2).contains("park"));
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(1024), 11);
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
    }
}
