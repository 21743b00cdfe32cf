//! The workspace lock-rank registry.
//!
//! Every lock in the workspace carries one of these ranks; a thread may
//! only acquire a lock whose rank is *strictly greater* than every rank
//! it already holds (same-rank re-acquisition is allowed only for
//! shared/read mode, so reentrant reads stay legal while two sibling
//! mutexes of the same rank — e.g. two buffer-pool shards — stay
//! forbidden). The table below is the one place a rank is written down,
//! and the blocking points after it the one place a blocking call's
//! allowed holds are: the runtime checker ([`crate::ordered`]) reads
//! both.
//!
//! The lattice, in prose (ranks ascend top to bottom):
//!
//! ```text
//! ctrl_apply -> ctrl_queue                    (crawler/run.rs control plane)
//!   -> model -> compiled -> store             (crawler/session/ hot path)
//!     -> exchange_inbox                       (crawler/cluster.rs routing)
//!     -> replica_db -> plan_cache             (minirel db/recovery)
//!       -> buffer_shard -> disk -> wal        (minirel storage; one shard at a time)
//!         -> wal_synced                       (minirel wal's durable watermark)
//!         -> mem_fs                           (minirel storage.rs memory files; a leaf)
//!         -> replica_err
//!     -> tallies -> diag                      (crawler counters; leaves of the session)
//! evolve_graph -> sim_attempts -> sim_reverse (webgraph simulation)
//! pool_queue -> pool_mailbox                  (crawler fetch pool; taken with no session locks)
//! ```
//!
//! No fsync of the log runs under any of them: a file log's syncer
//! thread syncs holding nothing ([`FSYNC_WAL`]), and a durable
//! acknowledgement waits on `wal_synced`'s condvar, which releases it.

/// A lock rank: a position in the workspace acquisition order plus the
/// name panic messages use for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rank {
    /// Position in the acquisition order; must strictly ascend.
    pub value: u16,
    /// Display name, e.g. `"crawler.store"`.
    pub name: &'static str,
}

impl Rank {
    /// Build a rank constant.
    pub const fn new(value: u16, name: &'static str) -> Rank {
        Rank { value, name }
    }
}

/// A call that blocks — a network round trip, an fsync, a distillation
/// pass — and the ranks a thread may hold across it. Every call site
/// announces itself with [`crate::blocking`]; holding any other rank
/// there is a bug of the same kind as an inversion.
#[derive(Clone, Copy, Debug)]
pub struct BlockingPoint {
    /// Display name, e.g. `"fsync-wal"`.
    pub name: &'static str,
    /// Ranks that may be held across the call.
    pub allow: &'static [Rank],
}

macro_rules! ranks {
    ($($(#[$doc:meta])* $konst:ident = $value:literal, $name:literal;)*) => {
        $($(#[$doc])* pub const $konst: Rank = Rank::new($value, $name);)*

        /// Every rank in the registry, ascending.
        pub const ALL: &[Rank] = &[$($konst),*];
    };
}

ranks! {
    /// `crawler/run.rs` `ControlState.applying`: serialises command
    /// application; held across apply callbacks that take model/store.
    CTRL_APPLY = 100, "crawler.ctrl_apply";
    /// `crawler/run.rs` `ControlState.queue`: pending control commands;
    /// re-popped under `applying`.
    CTRL_QUEUE = 110, "crawler.ctrl_queue";
    /// `crawler/session/` `model`: the trained classifier; read-held
    /// across compiles and store writes during retrain.
    MODEL = 200, "crawler.model";
    /// `crawler/session/` `compiled`: Arc-swapped compiled model.
    COMPILED = 210, "crawler.compiled";
    /// `crawler/session/` `store`: frontier + crawl store; the spine of
    /// the crawl loop.
    STORE = 300, "crawler.store";
    /// `crawler/cluster.rs` `ShardExchange.inboxes[i]`: cross-shard
    /// frontier routing; routed to while the store is write-held.
    EXCHANGE_INBOX = 350, "crawler.exchange_inbox";
    /// `minirel/recovery.rs` `ReplicaShared.db`: the replica database;
    /// write-held while applying shipped WAL records.
    REPLICA_DB = 400, "minirel.replica_db";
    /// `minirel/db.rs` `plans`: the prepared-plan cache; its read guard
    /// may live across execution (if-let scrutinee), which descends into
    /// buffer shards.
    PLAN_CACHE = 410, "minirel.plan_cache";
    /// `minirel/buffer.rs` `shards[i]`: buffer-pool shard latches. All
    /// shards share one rank, so holding two at once is an inversion —
    /// that is the pool's one-shard-at-a-time rule, machine-enforced.
    BUFFER_SHARD = 420, "minirel.buffer_shard";
    /// `minirel/buffer.rs` `disk`: the disk manager; taken under a shard
    /// latch on miss/eviction.
    DISK = 430, "minirel.disk";
    /// `minirel/wal.rs` `inner`: the write-ahead log; taken under a shard
    /// latch for WAL-before-data flushes, and alone for appends. A group
    /// is written under it; it is never held across an fsync.
    WAL = 440, "minirel.wal";
    /// `minirel/wal.rs` `Watermark.state`: how far a sync was requested
    /// and how far the log is synced; a commit posts its request under
    /// the WAL latch, the syncer publishes the watermark, and durable
    /// acknowledgements wait on its condvar with nothing else of the log
    /// held.
    WAL_SYNCED = 445, "minirel.wal_synced";
    /// `minirel/storage.rs` `MemFs.files` and a memory file's bytes: a
    /// leaf, taken under the disk or WAL latch for one read or write
    /// and never held across another lock. The namespace and a file are
    /// never held together; a memory file's sync takes nothing.
    MEM_FS = 447, "minirel.mem_fs";
    /// `minirel/recovery.rs` `ReplicaShared.error`: replica failure slot.
    REPLICA_ERR = 450, "minirel.replica_err";
    /// `crawler/session/` `counters.tallies`: crawl statistics; nests
    /// inside the store write lock.
    TALLIES = 500, "crawler.tallies";
    /// `crawler/session/` `diag`: run diagnostics; ordered after the
    /// store and tallies.
    DIAG = 510, "crawler.diag";
    /// `webgraph/evolve.rs` `graph`: the evolving web snapshot.
    EVOLVE_GRAPH = 600, "webgraph.evolve_graph";
    /// `webgraph/fetch.rs` `SimFetcher.attempts`: per-page fetch tallies.
    SIM_ATTEMPTS = 610, "webgraph.sim_attempts";
    /// `webgraph/fetch.rs` `SimFetcher.reverse`: lazily built reverse
    /// adjacency.
    SIM_REVERSE = 620, "webgraph.sim_reverse";
    /// `crawler/fetch_pool.rs` `PoolShared.queue`: pending fetch jobs;
    /// dropped before the blocking `Fetcher::fetch` call.
    POOL_QUEUE = 710, "crawler.pool_queue";
    /// `crawler/fetch_pool.rs` `HandleShared.completions`: finished
    /// fetches waiting for the crawl loop.
    POOL_MAILBOX = 720, "crawler.pool_mailbox";
}

/// `crawler/fetch_pool.rs`: a page fetch, on a fetcher thread or on the
/// worker itself. A network round trip; nothing may be held.
pub const FETCH: BlockingPoint = BlockingPoint {
    name: "fetch",
    allow: &[],
};

/// `crawler/session/flush.rs` (`citers`): a relevant page's citers, from
/// the server's backlink metadata (§3.2) — a round trip like a fetch,
/// looked up by the worker after classification and before the page
/// lands.
pub const BACKLINKS: BlockingPoint = BlockingPoint {
    name: "backlinks",
    allow: &[],
};

/// `crawler/session/flush.rs`: the HITS kernel over an owned snapshot —
/// milliseconds of work that peers and monitors must not wait out.
pub const DISTILL_PASS: BlockingPoint = BlockingPoint {
    name: "distill-pass",
    allow: &[],
};

/// `minirel/wal.rs`: fsync of the log, on the log's syncer thread. It
/// holds nothing: commits only request a sync, and whoever needs it
/// durable waits for the watermark outside every latch of the log.
pub const FSYNC_WAL: BlockingPoint = BlockingPoint {
    name: "fsync-wal",
    allow: &[],
};

/// `minirel/disk.rs`: fsync of the data file, under the disk manager's
/// latch (checkpoint and recovery).
pub const FSYNC_DATA: BlockingPoint = BlockingPoint {
    name: "fsync-data",
    allow: &[DISK],
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_points_allow_only_registry_ranks() {
        for point in [FETCH, BACKLINKS, DISTILL_PASS, FSYNC_WAL, FSYNC_DATA] {
            for r in point.allow {
                assert!(
                    ALL.contains(r),
                    "{} allows unknown rank {}",
                    point.name,
                    r.name
                );
            }
        }
    }

    #[test]
    fn ranks_strictly_ascend_and_names_are_unique() {
        for pair in ALL.windows(2) {
            assert!(
                pair[0].value < pair[1].value,
                "rank table must ascend: {} ({}) >= {} ({})",
                pair[0].name,
                pair[0].value,
                pair[1].name,
                pair[1].value
            );
        }
        for (i, a) in ALL.iter().enumerate() {
            for b in &ALL[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate rank name {}", a.name);
            }
        }
    }
}
