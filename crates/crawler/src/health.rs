//! Per-server health: exponential backoff, circuit breakers, and the
//! failure taxonomy behind them.
//!
//! The paper's crawler absorbs failures one page at a time (`numtries`);
//! this module adds the *server* dimension: consecutive failures from
//! one host back off exponentially, and past a threshold the host's
//! circuit breaker opens — its frontier entries are parked (see
//! `crawl.not_before`) instead of burning fetch attempts on a machine
//! that is down. After a cooldown the breaker goes half-open and admits
//! exactly one probe; any answer from the server closes it (a page, but
//! also a 404 or an unclassifiable body — see
//! [`HealthMap::record_answered`]), a timeout re-opens it with a doubled
//! cooldown.
//!
//! On top of the failure machinery sits **politeness**
//! ([`PolitenessConfig`]): a per-server cap on concurrently admitted
//! claims and a minimum inter-admission delay, so the fetch pool can
//! hold hundreds of fetches in flight without hammering any one host.
//! Admission charges the slot; the flush (or unclaim) that ends the
//! claim's life releases it.
//!
//! Everything here is pure bookkeeping over crawl *ticks* (fetch
//! attempts + empty polls, see [`crate::session`]) — no clocks, no RNG.
//! Jitter is a hash of `(server, consecutive failures)`, so
//! single-threaded crawls stay deterministic. The map lives inside the
//! session's store state, under the existing store lock: claim gating,
//! failure recording, and politeness charge/release all already happen
//! inside that critical section, so server health adds **no new lock**
//! and sits at the `store` rung of the session's lock order
//! (`model → compiled → store → wal → counters/diag` — see
//! [`crate::session`]'s module docs). Never take another session lock
//! while holding `&mut HealthMap`.

use focus_types::hash::{fx64, FxHashMap};
use focus_types::ServerId;

/// Exponential-backoff schedule for retriable failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffConfig {
    /// Park length after the first consecutive failure, in crawl ticks;
    /// doubles per further failure.
    pub base: i64,
    /// Cap on the exponential part (jitter can add up to half again).
    pub max: i64,
}

impl Default for BackoffConfig {
    fn default() -> BackoffConfig {
        BackoffConfig { base: 4, max: 64 }
    }
}

/// Consecutive-failure circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open the breaker (quarantine the
    /// server).
    pub threshold: u32,
    /// Quarantine length after opening, in crawl ticks; doubles every
    /// time a half-open probe fails.
    pub cooldown: i64,
    /// Cap on doubled cooldowns.
    pub max_cooldown: i64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            threshold: 5,
            cooldown: 32,
            max_cooldown: 256,
        }
    }
}

/// Per-server politeness: how hard one host may be hit.
///
/// Enforced at claim admission (the same critical section as breaker
/// gating), so the fetch pool can run hundreds of fetches concurrently
/// while any single server sees at most `max_in_flight` of them and at
/// most one admission per `min_delay` ticks. The in-flight window spans
/// admission → flush, a superset of the actual network fetch, so the
/// cap is conservative: the fetcher itself can never exceed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolitenessConfig {
    /// Max claims admitted-but-not-yet-flushed per server. Claims over
    /// the cap stay in the frontier (deferred in-scan, not parked).
    pub max_in_flight: usize,
    /// Min crawl ticks between successive admissions to one server
    /// (`0` = no pacing).
    pub min_delay: i64,
}

impl Default for PolitenessConfig {
    fn default() -> PolitenessConfig {
        PolitenessConfig {
            max_in_flight: 8,
            min_delay: 0,
        }
    }
}

impl PolitenessConfig {
    /// No cap, no pacing — the pre-politeness behavior.
    pub fn unlimited() -> PolitenessConfig {
        PolitenessConfig {
            max_in_flight: usize::MAX,
            min_delay: 0,
        }
    }
}

/// Breaker state machine: `Closed → Open → Probing → {Closed, Open}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Breaker {
    /// Healthy: claims flow freely.
    Closed,
    /// Quarantined until the tick: claims are parked, not fetched.
    Open {
        /// Tick at which the breaker goes half-open.
        until: i64,
    },
    /// Half-open: one probe is out; everything else stays parked until
    /// the probe succeeds (close) or fails (re-open, doubled cooldown).
    Probing,
}

/// One server's health record.
#[derive(Debug, Clone, Copy)]
pub struct ServerHealth {
    /// Server-attributable failures since the last success.
    pub consec_failures: u32,
    /// Breaker state.
    pub breaker: Breaker,
    /// Times the breaker has opened.
    pub quarantines: u64,
    /// Cooldown the *next* opening will use (doubles on failed probes).
    next_cooldown: i64,
    /// Claims admitted (Fetch or Probe) and not yet released at flush —
    /// the politeness concurrency gauge.
    in_flight: u32,
    /// Tick of the most recent admission, for `min_delay` pacing.
    /// Survives breaker transitions, so a post-probe admission still
    /// respects the gap from the probe itself.
    last_admit: i64,
}

/// Claim-time gate: what to do with a popped claim for this server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimGate {
    /// Server healthy — fetch it.
    Fetch,
    /// Quarantine expired — this claim is the half-open probe.
    Probe,
    /// Server quarantined — park the claim until the tick.
    Parked {
        /// Earliest tick the row may pop again.
        until: i64,
    },
}

/// What a recorded failure means for the failed page and the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureVerdict {
    /// Requeue (if tries remain) parked until the tick.
    Backoff {
        /// Backoff expiry tick.
        not_before: i64,
    },
    /// This failure opened (or re-opened) the breaker: quarantined.
    Quarantined {
        /// Quarantine expiry tick.
        until: i64,
        /// Consecutive failures at opening.
        failures: u32,
    },
}

impl FailureVerdict {
    /// The tick a requeued row should be parked until.
    pub fn not_before(&self) -> i64 {
        match *self {
            FailureVerdict::Backoff { not_before } => not_before,
            FailureVerdict::Quarantined { until, .. } => until,
        }
    }
}

/// Shard-local server-health map. Keyed by
/// [`crate::tables::host_server_id`], which is also the cluster's
/// sharding key — one server's health never crosses shards.
#[derive(Debug)]
pub struct HealthMap {
    servers: FxHashMap<ServerId, ServerHealth>,
    backoff: BackoffConfig,
    breaker: BreakerConfig,
    politeness: PolitenessConfig,
}

impl HealthMap {
    /// Empty map under the given policies.
    pub fn new(
        backoff: BackoffConfig,
        breaker: BreakerConfig,
        politeness: PolitenessConfig,
    ) -> HealthMap {
        HealthMap {
            servers: FxHashMap::default(),
            backoff,
            breaker,
            politeness,
        }
    }

    fn entry(&mut self, server: ServerId) -> &mut ServerHealth {
        let cooldown = self.breaker.cooldown;
        self.servers.entry(server).or_insert(ServerHealth {
            consec_failures: 0,
            breaker: Breaker::Closed,
            quarantines: 0,
            next_cooldown: cooldown,
            in_flight: 0,
            last_admit: i64::MIN / 2,
        })
    }

    /// Gate a due claim. Must be called inside the claim critical
    /// section, with the tick the claim would fetch at. An admitted
    /// claim (`Fetch` or `Probe`) occupies one politeness slot until
    /// [`HealthMap::release`] at flush.
    ///
    /// Politeness is checked *before* the breaker so a deferral never
    /// consumes the Open→Probing transition.
    pub fn admit(&mut self, server: ServerId, now: i64) -> ClaimGate {
        let probe_wait = self.breaker.cooldown;
        let pol = self.politeness;
        let h = self.entry(server);
        if (h.in_flight as usize) >= pol.max_in_flight {
            return ClaimGate::Parked { until: now + 1 };
        }
        if pol.min_delay > 0 && now < h.last_admit.saturating_add(pol.min_delay) {
            return ClaimGate::Parked {
                until: h.last_admit.saturating_add(pol.min_delay),
            };
        }
        let gate = match h.breaker {
            Breaker::Closed => ClaimGate::Fetch,
            Breaker::Open { until } if now >= until => {
                h.breaker = Breaker::Probing;
                ClaimGate::Probe
            }
            Breaker::Open { until } => ClaimGate::Parked { until },
            // A probe is already out; queue up behind its verdict.
            Breaker::Probing => ClaimGate::Parked {
                until: now + probe_wait,
            },
        };
        if matches!(gate, ClaimGate::Fetch | ClaimGate::Probe) {
            h.in_flight += 1;
            h.last_admit = now;
        }
        gate
    }

    /// Would politeness alone defer an admission to `server` right now?
    /// Pure (no entry creation, no probe transition) — the claim's gate
    /// asks this before [`HealthMap::admit`], so a row of a saturated
    /// server is deferred in place, never popped.
    pub fn politeness_deferred(&self, server: ServerId, now: i64) -> bool {
        let Some(h) = self.servers.get(&server) else {
            return false;
        };
        (h.in_flight as usize) >= self.politeness.max_in_flight
            || (self.politeness.min_delay > 0
                && now < h.last_admit.saturating_add(self.politeness.min_delay))
    }

    /// Release the politeness slot taken at admission. Every admitted
    /// claim must be released exactly once — at success flush, failure
    /// flush, or unclaim.
    pub fn release(&mut self, server: ServerId) {
        if let Some(h) = self.servers.get_mut(&server) {
            h.in_flight = h.in_flight.saturating_sub(1);
        }
    }

    /// Release the slot of an admitted claim handed back unfetched (a
    /// stop with the claim still queued). Had it been the half-open
    /// probe, no verdict would ever come and every later claim would
    /// park behind `Probing`, so the server's next claim probes instead.
    /// Only once the server has no claim admitted: while one is, the
    /// probe may be that claim, still being fetched, and its verdict
    /// must meet `Probing`.
    pub fn hand_back(&mut self, server: ServerId, now: i64) {
        self.release(server);
        if let Some(h) = self.servers.get_mut(&server) {
            if h.in_flight == 0 {
                drop_probe(h, now);
            }
        }
    }

    /// Every server with a record, and its health.
    pub fn servers(&self) -> impl Iterator<Item = (ServerId, &ServerHealth)> {
        self.servers.iter().map(|(&s, h)| (s, h))
    }

    /// Claims currently admitted against `server`.
    pub fn in_flight(&self, server: ServerId) -> usize {
        self.servers
            .get(&server)
            .map_or(0, |h| h.in_flight as usize)
    }

    /// Zero every politeness gauge, and reopen with its cooldown spent
    /// any breaker still waiting on a probe. Run-start hygiene: a
    /// panicked worker can leak admitted-but-never-released slots and
    /// the probe among them; the next run must not inherit them as
    /// phantom load or as a verdict that never comes.
    pub fn reset_in_flight(&mut self, now: i64) {
        for h in self.servers.values_mut() {
            h.in_flight = 0;
            drop_probe(h, now);
        }
    }

    /// Record a server-attributable failure (a timeout — 404s say
    /// nothing about the server, and a page that fetched but would not
    /// classify says the server is fine). Returns the page's backoff or
    /// the quarantine this failure triggered.
    pub fn record_failure(&mut self, server: ServerId, now: i64) -> FailureVerdict {
        let threshold = self.breaker.threshold.max(1);
        let max_cooldown = self.breaker.max_cooldown;
        let backoff = self.backoff;
        let h = self.entry(server);
        h.consec_failures = h.consec_failures.saturating_add(1);
        match h.breaker {
            // Half-open probe failed: straight back to quarantine, and
            // the next one waits twice as long.
            Breaker::Probing => {
                let cooldown = h.next_cooldown;
                h.next_cooldown = (cooldown * 2).min(max_cooldown);
                h.breaker = Breaker::Open {
                    until: now + cooldown,
                };
                h.quarantines += 1;
                FailureVerdict::Quarantined {
                    until: now + cooldown,
                    failures: h.consec_failures,
                }
            }
            Breaker::Closed if h.consec_failures >= threshold => {
                let cooldown = h.next_cooldown;
                h.next_cooldown = (cooldown * 2).min(max_cooldown);
                h.breaker = Breaker::Open {
                    until: now + cooldown,
                };
                h.quarantines += 1;
                FailureVerdict::Quarantined {
                    until: now + cooldown,
                    failures: h.consec_failures,
                }
            }
            // Already quarantined (this fetch was in flight when the
            // breaker opened): park the page behind the quarantine.
            Breaker::Open { until } => FailureVerdict::Backoff { not_before: until },
            Breaker::Closed => FailureVerdict::Backoff {
                not_before: now + backoff_ticks(&backoff, server, h.consec_failures),
            },
        }
    }

    /// Record a success. Returns `true` when this closed an open (or
    /// probing) breaker — the server *recovered*.
    pub fn record_success(&mut self, server: ServerId) -> bool {
        let cooldown = self.breaker.cooldown;
        let h = self.entry(server);
        let recovered = h.breaker != Breaker::Closed;
        h.consec_failures = 0;
        h.breaker = Breaker::Closed;
        h.next_cooldown = cooldown;
        recovered
    }

    /// Record a fetch the server *answered* without a page to land: a
    /// 404, or a body that would not classify. Health-neutral — except
    /// while the breaker is half-open, where any answer is what the probe
    /// was sent to find out: the server recovered. (Left unresolved, a
    /// probe that happened to hit a dead page would park the server's
    /// every later claim behind `Probing` for ever.) Returns `true` when
    /// this closed the breaker.
    pub fn record_answered(&mut self, server: ServerId) -> bool {
        let probing = self
            .get(server)
            .is_some_and(|h| h.breaker == Breaker::Probing);
        probing && self.record_success(server)
    }

    /// Current health of a server, if it has ever failed or recovered.
    pub fn get(&self, server: ServerId) -> Option<&ServerHealth> {
        self.servers.get(&server)
    }
}

/// `h`'s half-open probe will never report back: reopen the breaker
/// with its cooldown spent, so the server's next claim is the probe.
fn drop_probe(h: &mut ServerHealth, now: i64) {
    if h.breaker == Breaker::Probing {
        h.breaker = Breaker::Open { until: now };
    }
}

/// Exponential backoff with deterministic jitter: `base · 2^(n−1)`
/// capped at `max`, plus up to half that again from a hash of
/// `(server, n)` — staggered retries without RNG state.
fn backoff_ticks(cfg: &BackoffConfig, server: ServerId, consec: u32) -> i64 {
    let exp = cfg
        .base
        .saturating_mul(1i64 << (consec.saturating_sub(1)).min(32))
        .min(cfg.max)
        .max(1);
    let mut buf = [0u8; 8];
    buf[..4].copy_from_slice(&server.0.to_le_bytes());
    buf[4..].copy_from_slice(&consec.to_le_bytes());
    let jitter = (fx64(&buf) % (exp as u64 / 2 + 1)) as i64;
    exp + jitter
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> HealthMap {
        HealthMap::new(
            BackoffConfig { base: 4, max: 64 },
            BreakerConfig {
                threshold: 3,
                cooldown: 10,
                max_cooldown: 40,
            },
            PolitenessConfig::default(),
        )
    }

    #[test]
    fn backoff_grows_then_caps_and_is_deterministic() {
        let cfg = BackoffConfig { base: 4, max: 64 };
        let s = ServerId(9);
        let seq: Vec<i64> = (1..=8).map(|n| backoff_ticks(&cfg, s, n)).collect();
        // Exponential part: 4, 8, 16, 32, 64, 64, ... with jitter ≤ half.
        for (i, &b) in seq.iter().enumerate() {
            let exp = (4i64 << i).min(64);
            assert!(
                b >= exp && b <= exp + exp / 2,
                "backoff {b} outside [{exp}, 1.5·{exp}]"
            );
        }
        let again: Vec<i64> = (1..=8).map(|n| backoff_ticks(&cfg, s, n)).collect();
        assert_eq!(seq, again, "jitter is a hash, not an RNG");
    }

    #[test]
    fn breaker_opens_at_threshold_and_probes_after_cooldown() {
        let mut m = map();
        let s = ServerId(1);
        assert_eq!(m.admit(s, 0), ClaimGate::Fetch);
        assert!(matches!(
            m.record_failure(s, 0),
            FailureVerdict::Backoff { .. }
        ));
        assert!(matches!(
            m.record_failure(s, 1),
            FailureVerdict::Backoff { .. }
        ));
        // Third consecutive failure trips the breaker.
        let v = m.record_failure(s, 2);
        assert_eq!(
            v,
            FailureVerdict::Quarantined {
                until: 12,
                failures: 3
            }
        );
        // Quarantined claims park; after cooldown exactly one probes.
        assert_eq!(m.admit(s, 5), ClaimGate::Parked { until: 12 });
        assert_eq!(m.admit(s, 12), ClaimGate::Probe);
        assert_eq!(m.admit(s, 12), ClaimGate::Parked { until: 22 });
        // Probe failure re-opens with doubled cooldown.
        let v = m.record_failure(s, 13);
        assert_eq!(
            v,
            FailureVerdict::Quarantined {
                until: 33,
                failures: 4
            }
        );
        // Cooldown doubling caps at max_cooldown.
        assert_eq!(m.admit(s, 33), ClaimGate::Probe);
        assert!(matches!(
            m.record_failure(s, 33),
            FailureVerdict::Quarantined { until: 73, .. } // 33 + 40
        ));
        assert_eq!(m.get(s).unwrap().quarantines, 3);
        assert!(matches!(m.get(s).unwrap().breaker, Breaker::Open { .. }));
    }

    #[test]
    fn probe_success_closes_and_resets() {
        let mut m = map();
        let s = ServerId(2);
        for t in 0..3 {
            m.record_failure(s, t);
        }
        assert!(matches!(m.get(s).unwrap().breaker, Breaker::Open { .. }));
        assert_eq!(m.admit(s, 100), ClaimGate::Probe);
        assert!(m.record_success(s), "probe success = recovery");
        assert_eq!(m.admit(s, 101), ClaimGate::Fetch);
        assert_eq!(m.get(s).unwrap().consec_failures, 0);
        // Cooldown is back to base after recovery.
        for t in 0..3 {
            m.record_failure(s, 200 + t);
        }
        assert!(matches!(
            m.get(s).unwrap().breaker,
            Breaker::Open { until: 212 }
        ));
        // A plain success on a healthy server is not a "recovery".
        assert!(!m.record_success(ServerId(3)));
    }

    #[test]
    fn an_answered_probe_resolves_the_breaker_and_nothing_else_does() {
        let mut m = map();
        let s = ServerId(6);
        // A 404 on a healthy or unknown server is health-neutral…
        assert!(!m.record_answered(s));
        assert!(m.get(s).is_none(), "no record created for a neutral answer");
        m.record_failure(s, 0);
        assert!(!m.record_answered(s));
        assert_eq!(m.get(s).unwrap().consec_failures, 1, "streak untouched");
        // …and so is one that was in flight when the breaker opened.
        m.record_failure(s, 1);
        m.record_failure(s, 2);
        assert!(!m.record_answered(s));
        assert!(matches!(m.get(s).unwrap().breaker, Breaker::Open { .. }));
        // But the half-open probe coming back with *any* answer is the
        // recovery: without it the breaker would sit in Probing for ever
        // and park every later claim `cooldown` ticks ahead, for ever.
        assert_eq!(m.admit(s, 100), ClaimGate::Probe);
        assert!(matches!(m.admit(s, 101), ClaimGate::Parked { .. }));
        assert!(m.record_answered(s), "answered probe = recovery");
        m.release(s);
        assert_eq!(m.get(s).unwrap().breaker, Breaker::Closed);
        assert_eq!(m.get(s).unwrap().consec_failures, 0);
        assert_eq!(m.admit(s, 102), ClaimGate::Fetch);
    }

    #[test]
    fn a_hand_back_reopens_the_breaker_only_with_nothing_admitted() {
        let mut m = map();
        let s = ServerId(8);
        // A claim admitted while Closed is still out when the breaker
        // opens; the probe is admitted beside it.
        assert_eq!(m.admit(s, 0), ClaimGate::Fetch);
        for t in 0..3 {
            m.record_failure(s, t);
        }
        assert_eq!(m.admit(s, 12), ClaimGate::Probe);
        // A stop hands one of the two back: the other may be the probe,
        // still being fetched, so its verdict must still meet Probing.
        m.hand_back(s, 12);
        assert_eq!(m.get(s).unwrap().breaker, Breaker::Probing);
        assert_eq!(
            m.record_failure(s, 13),
            FailureVerdict::Quarantined {
                until: 33,
                failures: 4
            },
            "the probe's failure doubles the cooldown"
        );
        m.release(s);
        assert_eq!(m.get(s).unwrap().quarantines, 2);
        // With nothing else admitted, the handed-back claim was the probe.
        assert_eq!(m.admit(s, 33), ClaimGate::Probe);
        m.hand_back(s, 34);
        assert_eq!(m.get(s).unwrap().breaker, Breaker::Open { until: 34 });
        assert_eq!(m.admit(s, 34), ClaimGate::Probe);
    }

    #[test]
    fn in_flight_failures_during_quarantine_park_behind_it() {
        let mut m = map();
        let s = ServerId(4);
        for t in 0..3 {
            m.record_failure(s, t);
        }
        // A fetch that was already in flight fails at t=4: no second
        // quarantine event, page parks until the existing expiry.
        assert_eq!(
            m.record_failure(s, 4),
            FailureVerdict::Backoff { not_before: 12 }
        );
        assert_eq!(m.get(s).unwrap().quarantines, 1);
    }
}
