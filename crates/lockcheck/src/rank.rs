//! The workspace lock-rank registry.
//!
//! Every lock in the workspace carries one of these ranks; a thread may
//! only acquire a lock whose rank is *strictly greater* than every rank
//! it already holds (same-rank re-acquisition is allowed only for
//! shared/read mode, so reentrant reads stay legal while two sibling
//! mutexes of the same rank — e.g. two buffer-pool shards — stay
//! forbidden). The table below is the one place a rank is written down:
//! the runtime checker reads the constants, and the static pass looks
//! each `LOCK_ORDER.toml` entry's rank up here by name (the manifest
//! carries no numbers; a test holds the two to the same set of names).
//!
//! The lattice, in prose (ranks ascend top to bottom):
//!
//! ```text
//! ctrl_apply -> ctrl_queue                    (crawler/run.rs control plane)
//!   -> model -> compiled -> store             (crawler/session/ hot path)
//!     -> exchange_inbox                       (crawler/cluster.rs routing)
//!     -> replica_db -> plan_cache             (minirel db/recovery)
//!       -> buffer_shard -> disk -> wal        (minirel storage; one shard at a time)
//!         -> replica_err
//!     -> tallies -> diag                      (crawler counters; leaves of the session)
//! evolve_graph -> sim_attempts -> sim_reverse (webgraph simulation)
//! pool_queue -> pool_mailbox                  (crawler fetch pool; taken with no session locks)
//! ```

/// A lock rank: a position in the workspace acquisition order plus the
/// name the manifest and panic messages use for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rank {
    /// Position in the acquisition order; must strictly ascend.
    pub value: u16,
    /// Manifest name, e.g. `"crawler.store"`; matches `LOCK_ORDER.toml`.
    pub name: &'static str,
}

impl Rank {
    /// Build a rank constant. `name` must match the `LOCK_ORDER.toml` entry.
    pub const fn new(value: u16, name: &'static str) -> Rank {
        Rank { value, name }
    }
}

macro_rules! ranks {
    ($($(#[$doc:meta])* $konst:ident = $value:literal, $name:literal;)*) => {
        $($(#[$doc])* pub const $konst: Rank = Rank::new($value, $name);)*

        /// Every rank in the registry, ascending: where the static pass
        /// takes the rank of each lock `LOCK_ORDER.toml` declares.
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
    /// latch for WAL-before-data flushes, and alone for appends. fsync
    /// happens under it by design (annotated in `LOCK_ORDER.toml`).
    WAL = 440, "minirel.wal";
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

#[cfg(test)]
mod tests {
    use super::ALL;

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
