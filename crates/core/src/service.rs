//! The resident lifetime-distribution query service: one long-lived
//! process folding many concurrent [`Scenario`] queries into shared
//! work.
//!
//! Batch sweeps ([`crate::sweep::SweepPlan`]) already amortise a *known*
//! family of scenarios; [`LifetimeService`] does the same for traffic
//! that arrives online — the north-star's fleet shape of many devices,
//! few structural fingerprints, repeated re-queries. One query flows
//! through three layers, all guarded by one small mutex (never held
//! across a solve):
//!
//! 1. **Admission.** At most [`ServiceConfig::max_in_flight`] solves run
//!    at once. A query that would start a solve beyond that budget is
//!    shed with [`ServiceError::Overloaded`] — a typed, immediate
//!    refusal the caller can retry against, instead of an unbounded
//!    queue quietly eating the machine. Queries answered from cache, or
//!    joined onto an in-flight solve, are never shed: they cost no new
//!    work.
//! 2. **Incremental online planning.** Requests are keyed by
//!    [`Scenario::canonical_bytes`] (byte-identity, name erased).
//!    A key already being solved **joins** that flight — single-flight
//!    semantics: the second identical request blocks on the first solve
//!    and shares its result (errors included), it never re-solves. A
//!    new key is routed through
//!    [`SolverRegistry::auto`](crate::solver::SolverRegistry) selection
//!    and then joined into the *live group* for its
//!    `(backend, sweep_fingerprint)`: the same warm
//!    [`GroupState`] a batch sweep would
//!    thread through a plan group — one `DiscretisationTemplate` +
//!    `CurveCache` for a rate-rescale family, one `McPool` for
//!    simulation traffic — now kept resident across requests. Same-group
//!    solves serialise on the group state (exactly like a batch group's
//!    member order); different groups solve concurrently.
//! 3. **Caching.** Solved distributions land in a bounded LRU keyed by
//!    the scenario bytes, budgeted in bytes via
//!    [`LifetimeDistribution::size_in_bytes`] (hits hand out `Arc`
//!    views, never deep copies). Warm group states live in a second,
//!    smaller LRU keyed by `(backend, fingerprint)`. Both caches evict
//!    explicitly (least-recently-used first) and export their counters
//!    through [`ServiceStats`].
//!
//! **Bit-identity invariant.** Every shared fast path — the result
//! cache, single-flight joins, warm group state — returns the same bits
//! an independent [`SolverRegistry::solve`] of the same scenario under
//! the same options would: caching is an optimisation, never an
//! approximation. The `bench-harness regress` service gate enforces
//! sup-distance *exactly 0* between cached and fresh answers.
//!
//! ```
//! use kibamrm::scenario::Scenario;
//! use kibamrm::service::LifetimeService;
//! use kibamrm::solver::SolverRegistry;
//!
//! let service = LifetimeService::new(SolverRegistry::with_default_backends());
//! let scenario = Scenario::paper_cell_phone().unwrap();
//! let first = service.query(&scenario).unwrap();   // solves
//! let second = service.query(&scenario).unwrap();  // cache hit: same bits
//! assert_eq!(first.points(), second.points());
//! let stats = service.stats();
//! assert_eq!((stats.misses, stats.hits), (1, 1));
//! ```

use crate::distribution::LifetimeDistribution;
use crate::scenario::Scenario;
use crate::snapshot::{
    self, SnapshotEntry, SnapshotError, SnapshotLoadReport, SnapshotWriteReport,
};
use crate::solver::{GroupState, LifetimeSolver, SimulationSolver, SolverOptions, SolverRegistry};
use crate::KibamRmError;
use markov::Budget;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use units::{Charge, Time};

/// Errors from [`LifetimeService::query`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The query was shed: it would have started a new solve while
    /// [`ServiceConfig::max_in_flight`] solves were already running.
    /// Nothing was computed; retrying later is safe and cheap.
    Overloaded {
        /// Solves running when the query was refused.
        in_flight: usize,
        /// The configured admission bound.
        limit: usize,
    },
    /// The underlying solve failed (propagated verbatim, also to every
    /// request joined onto the failing flight).
    Solve(KibamRmError),
    /// The request's [`QueryOptions::deadline`] expired before the exact
    /// solve finished, and no degraded answer was allowed
    /// ([`QueryOptions::degraded_ok`] was false) or available.
    DeadlineExceeded {
        /// Units of work (backend-specific: uniformisation iterations or
        /// replications) the interrupted solve completed.
        completed: usize,
    },
    /// The circuit breaker for the request's `(backend, fingerprint)` is
    /// open after repeated backend failures: the query was shed fast,
    /// without touching the backend, until a half-open probe succeeds.
    CircuitOpen {
        /// The backend whose breaker is open.
        backend: &'static str,
    },
}

impl ServiceError {
    /// Whether retrying the *same* request later can reasonably succeed.
    ///
    /// * [`Overloaded`](ServiceError::Overloaded) — yes: admission
    ///   pressure drains as in-flight solves finish.
    /// * [`CircuitOpen`](ServiceError::CircuitOpen) — yes: the breaker
    ///   half-opens after its cooldown and lets a probe through.
    /// * [`DeadlineExceeded`](ServiceError::DeadlineExceeded) — no: the
    ///   request's own time budget was consumed; an unchanged retry fails
    ///   the same way. Raise the deadline or allow degradation instead.
    /// * [`Solve`](ServiceError::Solve) — only for transient numerical
    ///   failures (non-convergence); validation errors are permanent.
    pub fn retryable(&self) -> bool {
        match self {
            ServiceError::Overloaded { .. } | ServiceError::CircuitOpen { .. } => true,
            ServiceError::DeadlineExceeded { .. } => false,
            ServiceError::Solve(e) => transient_solve_error(e),
        }
    }
}

/// Transient solve failures — the class the service's bounded-backoff
/// retry loop re-attempts. Validation errors are deterministic and
/// excluded; numerical non-convergence (and injected chaos faults, which
/// reuse that variant) may clear on retry.
fn transient_solve_error(e: &KibamRmError) -> bool {
    matches!(
        e,
        KibamRmError::Markov(markov::MarkovError::NoConvergence(_))
    )
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { in_flight, limit } => write!(
                f,
                "service overloaded: {in_flight} solves in flight (limit {limit})"
            ),
            ServiceError::Solve(e) => write!(f, "{e}"),
            ServiceError::DeadlineExceeded { completed } => write!(
                f,
                "request deadline exceeded after {completed} units of completed work"
            ),
            ServiceError::CircuitOpen { backend } => write!(
                f,
                "circuit breaker open for backend '{backend}': shedding until a probe succeeds"
            ),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KibamRmError> for ServiceError {
    fn from(e: KibamRmError) -> Self {
        match e {
            KibamRmError::DeadlineExceeded { completed } => {
                ServiceError::DeadlineExceeded { completed }
            }
            other => ServiceError::Solve(other),
        }
    }
}

/// Bounded exponential backoff for transient solve failures
/// ([`QueryOptions::retry`]). `max_retries == 0` (the default) disables
/// retrying entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-attempts after the first failed solve (0 = never retry).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling (the exponential curve saturates here).
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// No retries (the default).
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(640),
        }
    }

    /// Up to `max_retries` re-attempts with the default backoff curve
    /// (10 ms doubling to a 640 ms ceiling).
    pub const fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(640),
        }
    }

    /// Replaces the backoff curve.
    #[must_use]
    pub const fn with_backoff(mut self, initial: Duration, max: Duration) -> Self {
        self.initial_backoff = initial;
        self.max_backoff = max;
        self
    }

    /// The backoff before retry `attempt` (1-based): `initial·2^(n−1)`,
    /// saturating at [`max_backoff`](RetryPolicy::max_backoff).
    fn backoff_for(&self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(20);
        self.initial_backoff
            .saturating_mul(1u32 << doublings)
            .min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Per-request quality-of-service knobs for
/// [`LifetimeService::query_with`]. The default (`no deadline, no
/// degradation, no retries`) reproduces [`LifetimeService::query`]
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QueryOptions {
    /// Wall-clock budget for this request. The exact solve is cancelled
    /// cooperatively (at iteration granularity) when it expires; the
    /// deadline instant is fixed once per request, so retries and
    /// degraded fallbacks share it rather than extending it.
    pub deadline: Option<Duration>,
    /// Allow a degraded answer when the exact solve cannot finish in
    /// time: a resident same-family curve at a different Δ, or a fast
    /// Monte Carlo estimate — always tagged
    /// [`Answer::Degraded`] with an explicit error bound.
    pub degraded_ok: bool,
    /// Retry policy for transient solve failures.
    pub retry: RetryPolicy,
}

impl QueryOptions {
    /// The default options (no deadline, exact answers only, no retry).
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Sets the request deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Permits degraded answers on deadline expiry.
    #[must_use]
    pub fn allow_degraded(mut self) -> Self {
        self.degraded_ok = true;
        self
    }

    /// Sets the retry policy for transient failures.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Where a degraded answer came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DegradedSource {
    /// A resident curve of the same structural family (identical
    /// workload, battery, grid and simulation settings) solved at a
    /// different discretisation step.
    CachedFamily {
        /// The Δ the cached curve was solved at (`None` for
        /// Δ-independent backends, whose curve is the exact answer).
        delta: Option<Charge>,
    },
    /// A fast Monte Carlo estimate computed under the degraded grace
    /// budget ([`ServiceConfig::degraded_grace`]).
    FastSimulation {
        /// Replications behind the estimate.
        runs: usize,
    },
}

/// The outcome of a [`LifetimeService::query_with`] request.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// The exact answer — bit-identical to an independent
    /// [`SolverRegistry::solve`] of the same scenario.
    Exact(LifetimeDistribution),
    /// A degraded answer served because the deadline expired before the
    /// exact solve finished. Never cached; always carries an explicit
    /// error bound.
    Degraded {
        /// The degraded curve.
        dist: LifetimeDistribution,
        /// Explicit sup-norm error bound of the degraded curve: the
        /// Wilson 95 % half-width for Monte Carlo answers, one
        /// discretisation level (`Δ/capacity`) for family variants, `0`
        /// when the variant is exact.
        bound: f64,
        /// Which degradation tier produced it.
        source: DegradedSource,
    },
}

impl Answer {
    /// The distribution, whichever tier produced it.
    pub fn distribution(&self) -> &LifetimeDistribution {
        match self {
            Answer::Exact(d) | Answer::Degraded { dist: d, .. } => d,
        }
    }

    /// Consumes the answer into its distribution.
    pub fn into_distribution(self) -> LifetimeDistribution {
        match self {
            Answer::Exact(d) | Answer::Degraded { dist: d, .. } => d,
        }
    }

    /// Whether this is a degraded answer.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Answer::Degraded { .. })
    }

    /// The explicit error bound of a degraded answer (`None` for exact).
    pub fn bound(&self) -> Option<f64> {
        match self {
            Answer::Exact(_) => None,
            Answer::Degraded { bound, .. } => Some(*bound),
        }
    }
}

/// Sizing knobs of a [`LifetimeService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Admission bound: at most this many solves run concurrently;
    /// further solve-starting queries are shed with
    /// [`ServiceError::Overloaded`]. Clamped to ≥ 1. Default: twice the
    /// available parallelism (some headroom for solves blocked on a
    /// shared group state).
    pub max_in_flight: usize,
    /// Byte budget of the solved-distribution LRU, accounted via
    /// [`LifetimeDistribution::size_in_bytes`]. `0` disables result
    /// caching (single-flight dedup still applies). Default: 32 MiB.
    pub cache_capacity_bytes: usize,
    /// Entry budget of the warm group-state LRU (templates, curve
    /// caches, worker pools). `0` disables warm-state reuse — every
    /// solve assembles its own state. Default: 16.
    pub warm_capacity: usize,
    /// Per-solve thread budget handed to the backends (see
    /// [`SolverOptions`]).
    pub options: SolverOptions,
    /// Consecutive solve failures per `(backend, fingerprint)` that trip
    /// its circuit breaker into the open state. `0` disables the
    /// breaker. Default: 5.
    pub breaker_threshold: u32,
    /// How long an open breaker sheds before half-opening for a single
    /// probe request. Default: 5 s.
    pub breaker_cooldown: Duration,
    /// Wall-clock grace granted to the fast-Monte-Carlo degradation tier
    /// after the request's own deadline expired (the fallback must not
    /// itself run unbounded). Default: 250 ms.
    pub degraded_grace: Duration,
    /// Replications of the fast-Monte-Carlo degradation tier. Default:
    /// 256 (Wilson 95 % half-width ≈ 0.06 at worst).
    pub degraded_runs: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServiceConfig {
            max_in_flight: 2 * cores,
            cache_capacity_bytes: 32 << 20,
            warm_capacity: 16,
            options: SolverOptions::default(),
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(5),
            degraded_grace: Duration::from_millis(250),
            degraded_runs: 256,
        }
    }
}

impl ServiceConfig {
    /// Replaces the admission bound.
    #[must_use]
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Replaces the result-cache byte budget.
    #[must_use]
    pub fn with_cache_capacity_bytes(mut self, bytes: usize) -> Self {
        self.cache_capacity_bytes = bytes;
        self
    }

    /// Replaces the warm-state entry budget.
    #[must_use]
    pub fn with_warm_capacity(mut self, entries: usize) -> Self {
        self.warm_capacity = entries;
        self
    }

    /// Replaces the per-solve thread budget.
    #[must_use]
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// Replaces the circuit-breaker policy (`threshold == 0` disables).
    #[must_use]
    pub fn with_breaker(mut self, threshold: u32, cooldown: Duration) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Replaces the degraded-fallback policy (grace budget and
    /// replication count of the fast-Monte-Carlo tier).
    #[must_use]
    pub fn with_degraded_fallback(mut self, grace: Duration, runs: usize) -> Self {
        self.degraded_grace = grace;
        self.degraded_runs = runs;
        self
    }
}

/// A point-in-time snapshot of the service's counters and occupancy
/// ([`LifetimeService::stats`]). Counters are cumulative since
/// construction and survive [`LifetimeService::purge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Queries answered from the result cache (no solve, no wait).
    pub hits: u64,
    /// Queries that started a fresh solve.
    pub misses: u64,
    /// Queries that joined an in-flight identical solve (single-flight).
    pub joined: u64,
    /// Queries shed with [`ServiceError::Overloaded`].
    pub shed: u64,
    /// Result-cache entries evicted to make room (LRU order).
    pub evictions: u64,
    /// Solves that found a resident warm group state for their
    /// `(backend, fingerprint)`.
    pub warm_hits: u64,
    /// Solves that had to create (or could not use) a warm group state.
    pub warm_misses: u64,
    /// Warm group states evicted to make room (LRU order).
    pub warm_evictions: u64,
    /// Queries whose scenario has no canonical byte key
    /// ([`Scenario::canonical_bytes`] failed): admitted and solved, but
    /// never cached, deduplicated or joined.
    pub uncacheable: u64,
    /// Solves that failed in the backend ([`ServiceError::Solve`];
    /// errors are never cached). Deadline expiries and breaker sheds are
    /// not backend failures: they count in `deadline_expired` and
    /// `breaker_open` instead.
    pub errors: u64,
    /// Requests whose deadline expired before an exact answer arrived
    /// (whether or not a degraded answer was then served).
    pub deadline_expired: u64,
    /// Requests answered by a degradation tier instead of an exact
    /// solve.
    pub degraded_served: u64,
    /// Transient-failure retries performed by the bounded-backoff loop.
    pub retries: u64,
    /// Queries shed by an open circuit breaker.
    pub breaker_open: u64,
    /// Snapshot entries revived into the result cache by
    /// [`LifetimeService::load_snapshot`].
    pub snapshot_loaded: u64,
    /// Snapshot files or entries rejected on load (corruption, version
    /// skew, failed re-validation). Disjoint from `snapshot_loaded`:
    /// every snapshot entry counts in exactly one of the two.
    pub snapshot_rejected: u64,
    /// Snapshots written successfully by
    /// [`LifetimeService::save_snapshot`].
    pub snapshot_written: u64,
    /// Solves running right now.
    pub in_flight: usize,
    /// Result-cache entries currently resident.
    pub cached_entries: usize,
    /// Result-cache bytes currently resident.
    pub result_cache_bytes: usize,
    /// Warm group states currently resident.
    pub warm_entries: usize,
}

impl ServiceStats {
    /// Fraction of admitted queries served without starting a solve:
    /// `(hits + joined) / (hits + joined + misses + uncacheable)`.
    /// `0` when nothing was admitted yet.
    pub fn hit_rate(&self) -> f64 {
        let served = self.hits + self.joined;
        let admitted = served + self.misses + self.uncacheable;
        if admitted == 0 {
            0.0
        } else {
            served as f64 / admitted as f64
        }
    }
}

/// An in-flight solve other requests can join: the first request for a
/// key publishes its outcome here and wakes every joiner.
struct Flight {
    done: Mutex<Option<Result<LifetimeDistribution, ServiceError>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the flight completes, or until `deadline` (when one
    /// is set). `None` means the deadline passed first — the flight
    /// itself keeps running and completes normally for other waiters.
    fn wait_until(
        &self,
        deadline: Option<Instant>,
    ) -> Option<Result<LifetimeDistribution, ServiceError>> {
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = done.as_ref() {
                return Some(result.clone());
            }
            match deadline {
                None => done = self.cv.wait(done).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    done = self
                        .cv
                        .wait_timeout(done, d - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    fn complete(&self, result: Result<LifetimeDistribution, ServiceError>) {
        *self.done.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.cv.notify_all();
    }
}

/// One resident result-cache entry.
struct CacheEntry {
    dist: LifetimeDistribution,
    bytes: usize,
    last_used: u64,
    /// Hash of the scenario's Δ-erased canonical bytes: entries sharing
    /// it form one structural family (identical workload, battery, grid
    /// and simulation settings; only the discretisation step differs) —
    /// the lookup key of the cached-family degradation tier.
    family: Option<u64>,
}

/// One resident warm group state. The `Arc<Mutex<…>>` is the live-group
/// handle: every same-fingerprint solve locks it for the duration of its
/// member solve, which serialises the group exactly like a batch plan
/// group while leaving other groups fully concurrent. Evicting the entry
/// only unlists it — an in-progress solve keeps its state alive through
/// the `Arc` and finishes normally.
struct WarmEntry {
    state: Arc<Mutex<Box<dyn GroupState>>>,
    last_used: u64,
}

/// Circuit-breaker state machine for one `(backend, fingerprint)`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    /// Healthy: solves pass through; consecutive failures are counted.
    Closed,
    /// Tripped: queries shed fast with [`ServiceError::CircuitOpen`]
    /// until `until`, when the next query becomes the half-open probe.
    Open {
        /// End of the cooldown.
        until: Instant,
    },
    /// One probe solve is in progress; everything else sheds. The
    /// probe's outcome closes (success) or re-opens (failure) the
    /// breaker.
    HalfOpen,
}

/// Per-`(backend, fingerprint)` failure ledger behind the service lock.
struct Breaker {
    consecutive_failures: u32,
    state: BreakerState,
}

impl Default for Breaker {
    fn default() -> Self {
        Breaker {
            consecutive_failures: 0,
            state: BreakerState::Closed,
        }
    }
}

/// How one solve attempt ended, as the breaker sees it.
enum BreakerOutcome {
    /// The backend answered: reset the failure count, close the breaker.
    Success,
    /// The backend failed (error or panic): count it; trip at the
    /// threshold, re-open from half-open.
    Failure,
    /// The *request's* deadline expired mid-solve — says nothing about
    /// backend health. A half-open probe cut short re-opens with no
    /// cooldown so the next request can probe immediately.
    Neutral,
}

/// Everything behind the service mutex. The lock is held only for map
/// lookups and counter bumps — never across a solve.
#[derive(Default)]
struct Inner {
    cache: HashMap<Vec<u8>, CacheEntry>,
    cache_bytes: usize,
    warm: HashMap<(usize, u64), WarmEntry>,
    flights: HashMap<Vec<u8>, Arc<Flight>>,
    breakers: HashMap<(usize, u64), Breaker>,
    in_flight: usize,
    /// Monotone LRU clock: bumped on every cache/warm touch.
    tick: u64,
    hits: u64,
    misses: u64,
    joined: u64,
    shed: u64,
    evictions: u64,
    warm_hits: u64,
    warm_misses: u64,
    warm_evictions: u64,
    uncacheable: u64,
    errors: u64,
    deadline_expired: u64,
    degraded_served: u64,
    retries: u64,
    breaker_open: u64,
    snapshot_loaded: u64,
    snapshot_rejected: u64,
    snapshot_written: u64,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Inserts a solved distribution, evicting least-recently-used
    /// entries until it fits. Oversized results (bigger than the whole
    /// budget) are simply not cached.
    fn insert_cached(
        &mut self,
        key: Vec<u8>,
        dist: LifetimeDistribution,
        family: Option<u64>,
        budget: usize,
    ) {
        let bytes = dist.size_in_bytes();
        if bytes > budget {
            return;
        }
        while self.cache_bytes + bytes > budget {
            // DETERMINISM-OK: the minimum is taken over the total key
            // (last_used, canonical bytes) — ticks are already unique,
            // and the tie-break pins the victim even if they were not,
            // so hash order cannot pick it.
            let Some(victim) = self
                .cache
                .iter()
                .min_by_key(|(k, e)| (e.last_used, k.as_slice()))
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(evicted) = self.cache.remove(&victim) {
                self.cache_bytes -= evicted.bytes;
                self.evictions += 1;
            }
        }
        let last_used = self.next_tick();
        self.cache_bytes += bytes;
        self.cache.insert(
            key,
            CacheEntry {
                dist,
                bytes,
                last_used,
                family,
            },
        );
    }
}

/// Hash of the scenario's Δ-erased canonical bytes — the structural
/// family key of the cached-family degradation tier. Two scenarios with
/// equal family keys differ at most in name and discretisation step.
fn family_key(scenario: &Scenario) -> Option<u64> {
    let erased = scenario.with_delta(Charge::from_coulombs(1.0));
    let bytes = erased.canonical_bytes().ok()?;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    Some(h.finish())
}

/// The resident query service; see the module docs for the lifecycle.
///
/// The service is `Sync`: share one instance (e.g. behind an `Arc`)
/// between all request threads.
pub struct LifetimeService {
    registry: SolverRegistry,
    config: ServiceConfig,
    inner: Mutex<Inner>,
}

// One `LifetimeService` is shared by every request thread.
const _: fn() = || {
    fn assert_sync<T: Send + Sync>() {}
    assert_sync::<LifetimeService>();
};

/// What the admission lock decided for one keyed query.
enum Admission {
    Hit(LifetimeDistribution),
    Join(Arc<Flight>),
    Solve(Arc<Flight>),
}

impl LifetimeService {
    /// A service over `registry` with the default [`ServiceConfig`].
    pub fn new(registry: SolverRegistry) -> Self {
        LifetimeService::with_config(registry, ServiceConfig::default())
    }

    /// A service over `registry` with explicit sizing.
    pub fn with_config(registry: SolverRegistry, config: ServiceConfig) -> Self {
        LifetimeService {
            registry,
            config,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The service's sizing knobs.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The registry queries are routed through.
    pub fn registry(&self) -> &SolverRegistry {
        &self.registry
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panicking solver thread cannot corrupt the maps (the lock is
        // never held across backend code), so poisoning is not fatal.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Answers one query: from the result cache when the scenario's
    /// canonical bytes are resident, by joining an identical in-flight
    /// solve, or by solving through the live group for its
    /// `(backend, fingerprint)` — whichever is cheapest. Blocks until
    /// the answer (or the flight it joined) is ready. Equivalent to
    /// [`query_with`](LifetimeService::query_with) under the default
    /// [`QueryOptions`] (no deadline, exact answers only, no retry).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Overloaded`] when the query would start a solve
    /// beyond the admission bound (nothing was computed);
    /// [`ServiceError::CircuitOpen`] when the backend's breaker is
    /// shedding; [`ServiceError::Solve`] for backend-selection and solve
    /// failures (shared verbatim with every joined request; never
    /// cached).
    pub fn query(&self, scenario: &Scenario) -> Result<LifetimeDistribution, ServiceError> {
        self.query_with(scenario, &QueryOptions::default())
            .map(Answer::into_distribution)
    }

    /// [`query`](LifetimeService::query) with per-request
    /// quality-of-service knobs: a wall-clock deadline (cancelling the
    /// exact solve cooperatively at iteration granularity), graceful
    /// degradation on expiry, and bounded-backoff retry of transient
    /// failures. The request's deadline instant is fixed on entry —
    /// retries and fallbacks spend the same budget, never extend it.
    ///
    /// # Errors
    ///
    /// As for [`query`](LifetimeService::query), plus
    /// [`ServiceError::DeadlineExceeded`] when the deadline expired and
    /// no degraded answer was allowed or available.
    pub fn query_with(
        &self,
        scenario: &Scenario,
        opts: &QueryOptions,
    ) -> Result<Answer, ServiceError> {
        let deadline = opts.deadline.map(|d| Instant::now() + d);
        let Ok(key) = scenario.canonical_bytes() else {
            return self.query_uncacheable(scenario, opts, deadline);
        };
        let admission = {
            let mut inner = self.lock();
            if inner.cache.contains_key(&key) {
                let tick = inner.next_tick();
                inner.hits += 1;
                // PANIC-OK: the key was checked resident two lines up
                // and the same lock guard has been held throughout.
                let entry = inner.cache.get_mut(&key).expect("checked key");
                entry.last_used = tick;
                Admission::Hit(entry.dist.clone())
            } else if let Some(flight) = inner.flights.get(&key).map(Arc::clone) {
                inner.joined += 1;
                Admission::Join(flight)
            } else {
                let limit = self.config.max_in_flight.max(1);
                if inner.in_flight >= limit {
                    inner.shed += 1;
                    return Err(ServiceError::Overloaded {
                        in_flight: inner.in_flight,
                        limit,
                    });
                }
                inner.in_flight += 1;
                inner.misses += 1;
                let flight = Arc::new(Flight::new());
                inner.flights.insert(key.clone(), Arc::clone(&flight));
                Admission::Solve(flight)
            }
        };
        let outcome = match admission {
            // A cache hit is exact and instant: always serve it, even
            // past the deadline.
            Admission::Hit(dist) => return Ok(Answer::Exact(dist)),
            Admission::Join(flight) => match flight.wait_until(deadline) {
                Some(result) => result,
                // The joined flight outlived our deadline; it keeps
                // running for its owner and other joiners.
                None => Err(ServiceError::DeadlineExceeded { completed: 0 }),
            },
            Admission::Solve(flight) => self.run_flight(scenario, key, &flight, opts, deadline),
        };
        match outcome {
            Ok(dist) => Ok(Answer::Exact(dist)),
            Err(ServiceError::DeadlineExceeded { completed }) => {
                self.handle_deadline(scenario, opts, completed)
            }
            Err(e) => Err(e),
        }
    }

    /// The owner path of a flight: solve, publish, cache. A guard keeps
    /// the bookkeeping (and the joiners) correct even if the backend
    /// panics.
    fn run_flight(
        &self,
        scenario: &Scenario,
        key: Vec<u8>,
        flight: &Arc<Flight>,
        opts: &QueryOptions,
        deadline: Option<Instant>,
    ) -> Result<LifetimeDistribution, ServiceError> {
        struct FlightGuard<'a> {
            service: &'a LifetimeService,
            key: Vec<u8>,
            flight: &'a Arc<Flight>,
            done: bool,
        }
        impl Drop for FlightGuard<'_> {
            fn drop(&mut self) {
                if self.done {
                    return;
                }
                // The solve unwound: unregister the flight and wake the
                // joiners with an error instead of leaving them parked
                // forever. The panic keeps propagating to the caller.
                let mut inner = self.service.lock();
                inner.flights.remove(&self.key);
                inner.in_flight -= 1;
                inner.errors += 1;
                drop(inner);
                self.flight
                    .complete(Err(ServiceError::Solve(KibamRmError::InvalidWorkload(
                        "solver panicked during a service query".into(),
                    ))));
            }
        }

        let mut guard = FlightGuard {
            service: self,
            key,
            flight,
            done: false,
        };
        let result = self.solve_with_policy(scenario, opts, deadline);
        guard.done = true;
        let mut inner = self.lock();
        inner.flights.remove(&guard.key);
        inner.in_flight -= 1;
        match &result {
            Ok(dist) => {
                let key = std::mem::take(&mut guard.key);
                inner.insert_cached(
                    key,
                    dist.clone(),
                    family_key(scenario),
                    self.config.cache_capacity_bytes,
                );
            }
            // Only backend failures count as errors: deadline expiries
            // and breaker sheds have their own ledger entries.
            Err(ServiceError::Solve(_)) => inner.errors += 1,
            Err(_) => {}
        }
        drop(inner);
        flight.complete(result.clone());
        result
    }

    /// A scenario without a canonical key: admitted (and counted against
    /// the in-flight budget) but never cached, deduplicated or joined.
    fn query_uncacheable(
        &self,
        scenario: &Scenario,
        opts: &QueryOptions,
        deadline: Option<Instant>,
    ) -> Result<Answer, ServiceError> {
        {
            let mut inner = self.lock();
            let limit = self.config.max_in_flight.max(1);
            if inner.in_flight >= limit {
                inner.shed += 1;
                return Err(ServiceError::Overloaded {
                    in_flight: inner.in_flight,
                    limit,
                });
            }
            inner.in_flight += 1;
            inner.uncacheable += 1;
        }
        struct InFlightGuard<'a>(&'a LifetimeService);
        impl Drop for InFlightGuard<'_> {
            fn drop(&mut self) {
                self.0.lock().in_flight -= 1;
            }
        }
        let result = {
            let _guard = InFlightGuard(self);
            self.solve_with_policy(scenario, opts, deadline)
        };
        match result {
            Ok(dist) => Ok(Answer::Exact(dist)),
            Err(e) => {
                if matches!(e, ServiceError::Solve(_)) {
                    self.lock().errors += 1;
                }
                match e {
                    ServiceError::DeadlineExceeded { completed } => {
                        self.handle_deadline(scenario, opts, completed)
                    }
                    other => Err(other),
                }
            }
        }
    }

    /// The retry loop around one request's solve attempts: transient
    /// failures back off exponentially (bounded, and never past the
    /// request's deadline) and re-attempt up to the policy's budget;
    /// everything else — success, permanent errors, deadline expiry,
    /// open breakers — returns immediately.
    fn solve_with_policy(
        &self,
        scenario: &Scenario,
        opts: &QueryOptions,
        deadline: Option<Instant>,
    ) -> Result<LifetimeDistribution, ServiceError> {
        let budget = match deadline {
            Some(d) => Budget::with_deadline_at(d),
            None => Budget::unlimited(),
        };
        let mut attempt = 0u32;
        loop {
            let result = self.solve_attempt(scenario, &budget);
            let transient =
                matches!(&result, Err(ServiceError::Solve(e)) if transient_solve_error(e));
            let expired = deadline.is_some_and(|d| Instant::now() >= d);
            if !transient || attempt >= opts.retry.max_retries || expired {
                return result;
            }
            attempt += 1;
            self.lock().retries += 1;
            let mut backoff = opts.retry.backoff_for(attempt);
            if let Some(d) = deadline {
                backoff = backoff.min(d.saturating_duration_since(Instant::now()));
            }
            std::thread::sleep(backoff);
        }
    }

    /// One solve through the live group for the scenario's
    /// `(backend, fingerprint)`: check the group's circuit breaker, lock
    /// its warm state (creating or resurrecting it as needed) and run
    /// the same grouped member solve a batch sweep would — under the
    /// request's cooperative budget. Backends without a fingerprint or
    /// warm state solve independently.
    ///
    /// Requests arrive one at a time, so this path solves members
    /// serially against the warm state, exactly as the sweep planner's
    /// `solve_group` does: a rate-rescaled sibling of a resident member
    /// extends or remixes the warm uniformisation sweep, in CSR and
    /// windowed banded storage alike — see DESIGN.md §13.
    fn solve_attempt(
        &self,
        scenario: &Scenario,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, ServiceError> {
        let index = self.registry.auto_index(scenario)?;
        let solver = self.registry.solver_at(index);
        let fingerprint = solver.sweep_fingerprint(scenario);
        let breaker_key = (index, fingerprint.unwrap_or(0));
        self.breaker_admit(breaker_key, solver.name())?;

        // Records the attempt's outcome even if the backend panics (a
        // panic counts as a failure): the drop path runs during unwind.
        struct BreakerGuard<'a> {
            service: &'a LifetimeService,
            key: (usize, u64),
            outcome: Option<BreakerOutcome>,
        }
        impl Drop for BreakerGuard<'_> {
            fn drop(&mut self) {
                let outcome = self.outcome.take().unwrap_or(BreakerOutcome::Failure);
                self.service.breaker_record(self.key, outcome);
            }
        }
        let mut guard = BreakerGuard {
            service: self,
            key: breaker_key,
            outcome: None,
        };

        let options = self.config.options;
        let slot = fingerprint
            .and_then(|fp| self.warm_slot(index, fp, |opts| solver.new_group_state(opts)));
        let result = match slot {
            Some(slot) => {
                // Serialises same-group solves, exactly like a batch
                // group's member order. A poisoned state (an earlier
                // member panicked mid-solve) is replaced wholesale: a
                // half-updated cache could violate bit-identity.
                let mut state = match slot.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => {
                        let mut guard = poisoned.into_inner();
                        if let Some(fresh) = solver.new_group_state(&options) {
                            *guard = fresh;
                        }
                        guard
                    }
                };
                solver.solve_in_group_budgeted(scenario, &options, state.as_mut(), budget)
            }
            None => solver.solve_with_budget(scenario, &options, budget),
        };
        guard.outcome = Some(match &result {
            Ok(_) => BreakerOutcome::Success,
            Err(KibamRmError::DeadlineExceeded { .. }) => BreakerOutcome::Neutral,
            Err(_) => BreakerOutcome::Failure,
        });
        result.map_err(ServiceError::from)
    }

    /// Breaker admission for one attempt: pass when closed, become the
    /// probe when the cooldown has elapsed, shed fast otherwise.
    fn breaker_admit(&self, key: (usize, u64), backend: &'static str) -> Result<(), ServiceError> {
        if self.config.breaker_threshold == 0 {
            return Ok(());
        }
        let mut inner = self.lock();
        let breaker = inner.breakers.entry(key).or_default();
        match breaker.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open { until } => {
                if Instant::now() >= until {
                    // This request becomes the half-open probe.
                    breaker.state = BreakerState::HalfOpen;
                    Ok(())
                } else {
                    inner.breaker_open += 1;
                    Err(ServiceError::CircuitOpen { backend })
                }
            }
            BreakerState::HalfOpen => {
                // A probe is already in progress; shed until it reports.
                inner.breaker_open += 1;
                Err(ServiceError::CircuitOpen { backend })
            }
        }
    }

    /// Folds one attempt's outcome into the breaker state machine.
    fn breaker_record(&self, key: (usize, u64), outcome: BreakerOutcome) {
        if self.config.breaker_threshold == 0 {
            return;
        }
        let mut inner = self.lock();
        let breaker = inner.breakers.entry(key).or_default();
        match outcome {
            BreakerOutcome::Success => {
                breaker.consecutive_failures = 0;
                breaker.state = BreakerState::Closed;
            }
            BreakerOutcome::Failure => {
                breaker.consecutive_failures = breaker.consecutive_failures.saturating_add(1);
                let tripped = breaker.consecutive_failures >= self.config.breaker_threshold;
                if tripped || breaker.state == BreakerState::HalfOpen {
                    breaker.state = BreakerState::Open {
                        until: Instant::now() + self.config.breaker_cooldown,
                    };
                }
            }
            BreakerOutcome::Neutral => {
                // A deadline expiry says nothing about backend health;
                // an interrupted probe re-opens with no cooldown so the
                // next request probes immediately.
                if breaker.state == BreakerState::HalfOpen {
                    breaker.state = BreakerState::Open {
                        until: Instant::now(),
                    };
                }
            }
        }
    }

    /// A request whose deadline expired before an exact answer: record
    /// it, then serve a degraded answer when the request allows one.
    fn handle_deadline(
        &self,
        scenario: &Scenario,
        opts: &QueryOptions,
        completed: usize,
    ) -> Result<Answer, ServiceError> {
        self.lock().deadline_expired += 1;
        if !opts.degraded_ok {
            return Err(ServiceError::DeadlineExceeded { completed });
        }
        self.degrade(scenario, completed)
    }

    /// The degradation ladder: a resident same-family curve first (free),
    /// a fast Monte Carlo estimate under the grace budget second. Both
    /// carry explicit error bounds; neither is ever cached. When every
    /// tier fails the original deadline error stands.
    fn degrade(&self, scenario: &Scenario, completed: usize) -> Result<Answer, ServiceError> {
        if let Some((dist, bound, delta)) = self.family_fallback(scenario) {
            self.lock().degraded_served += 1;
            return Ok(Answer::Degraded {
                dist,
                bound,
                source: DegradedSource::CachedFamily { delta },
            });
        }
        match self.fast_simulation(scenario) {
            Ok((dist, bound, runs)) => {
                self.lock().degraded_served += 1;
                Ok(Answer::Degraded {
                    dist,
                    bound,
                    source: DegradedSource::FastSimulation { runs },
                })
            }
            Err(_) => Err(ServiceError::DeadlineExceeded { completed }),
        }
    }

    /// Tier 1: the most recently used resident curve of the scenario's
    /// structural family (same workload, battery, grid and simulation
    /// settings; different Δ). Returns the curve, its error bound and
    /// the Δ it was solved at.
    fn family_fallback(
        &self,
        scenario: &Scenario,
    ) -> Option<(LifetimeDistribution, f64, Option<Charge>)> {
        let family = family_key(scenario)?;
        let capacity = scenario.capacity();
        let mut inner = self.lock();
        let tick = inner.next_tick();
        // DETERMINISM-OK: the maximum is taken over the total key
        // (last_used, canonical bytes) — ticks are already unique, and
        // the tie-break pins the chosen family curve even if they were
        // not, so hash order cannot pick it.
        let entry = inner
            .cache
            .iter_mut()
            .filter(|(_, e)| e.family == Some(family))
            .max_by_key(|(k, e)| (e.last_used, k.as_slice()))
            .map(|(_, e)| e)?;
        entry.last_used = tick;
        let dist = entry.dist.clone();
        let diag = *dist.diagnostics();
        let (bound, delta) = match (diag.half_width, diag.delta) {
            // A Monte Carlo family curve: its Wilson half-width is the bound.
            (Some(hw), d) => (hw, d),
            // A discretisation curve at a different Δ: one level of
            // charge as a fraction of capacity — the resolution scale of
            // the §5 approximation error.
            (None, Some(d)) => ((d.as_coulombs() / capacity.as_coulombs()).abs(), Some(d)),
            // A Δ-independent exact backend: the variant is the answer.
            (None, None) => (0.0, None),
        };
        Some((dist, bound, delta))
    }

    /// Tier 2: a fast Monte Carlo estimate with
    /// [`ServiceConfig::degraded_runs`] replications under the
    /// [`ServiceConfig::degraded_grace`] budget, bounded by its Wilson
    /// 95 % half-width. Bypasses the registry (and any chaos wrapping of
    /// it): the fallback must stay dependable when backends are not.
    fn fast_simulation(
        &self,
        scenario: &Scenario,
    ) -> Result<(LifetimeDistribution, f64, usize), ServiceError> {
        let runs = self.config.degraded_runs.max(1);
        let fallback = scenario.with_simulation(runs, scenario.sim_seed());
        let budget = Budget::with_deadline(self.config.degraded_grace);
        let dist =
            SimulationSolver::new().solve_with_budget(&fallback, &self.config.options, &budget)?;
        let diag = *dist.diagnostics();
        let bound = diag.half_width.unwrap_or(1.0);
        let actual_runs = diag.runs.unwrap_or(runs);
        Ok((dist, bound, actual_runs))
    }

    /// The live-group handle for `(backend index, fingerprint)`:
    /// resident state when there is one, a freshly created (and
    /// LRU-inserted) state otherwise. `None` when the backend has no
    /// warm state or warm caching is disabled.
    fn warm_slot(
        &self,
        index: usize,
        fingerprint: u64,
        make: impl FnOnce(&SolverOptions) -> Option<Box<dyn GroupState>>,
    ) -> Option<Arc<Mutex<Box<dyn GroupState>>>> {
        if self.config.warm_capacity == 0 {
            return None;
        }
        let mut inner = self.lock();
        let tick = inner.next_tick();
        if let Some(entry) = inner.warm.get_mut(&(index, fingerprint)) {
            entry.last_used = tick;
            let state = Arc::clone(&entry.state);
            inner.warm_hits += 1;
            return Some(state);
        }
        inner.warm_misses += 1;
        // Create outside the lock? State construction is cheap for the
        // current backends (pool workers spawn lazily on first use for
        // small thread counts) — and creating inside the lock guarantees
        // at most one state per group ever exists, which is the whole
        // point of a live group.
        let state = Arc::new(Mutex::new(make(&self.config.options)?));
        while inner.warm.len() >= self.config.warm_capacity {
            // DETERMINISM-OK: the minimum is taken over the total key
            // (last_used, group key) — ticks are already unique, and
            // the tie-break pins the victim even if they were not, so
            // hash order cannot pick it.
            let Some(victim) = inner
                .warm
                .iter()
                .min_by_key(|(&k, e)| (e.last_used, k))
                .map(|(&k, _)| k)
            else {
                break;
            };
            inner.warm.remove(&victim);
            inner.warm_evictions += 1;
        }
        inner.warm.insert(
            (index, fingerprint),
            WarmEntry {
                state: Arc::clone(&state),
                last_used: tick,
            },
        );
        Some(state)
    }

    /// A snapshot of the counters and current occupancy.
    pub fn stats(&self) -> ServiceStats {
        let inner = self.lock();
        ServiceStats {
            hits: inner.hits,
            misses: inner.misses,
            joined: inner.joined,
            shed: inner.shed,
            evictions: inner.evictions,
            warm_hits: inner.warm_hits,
            warm_misses: inner.warm_misses,
            warm_evictions: inner.warm_evictions,
            uncacheable: inner.uncacheable,
            errors: inner.errors,
            deadline_expired: inner.deadline_expired,
            degraded_served: inner.degraded_served,
            retries: inner.retries,
            breaker_open: inner.breaker_open,
            snapshot_loaded: inner.snapshot_loaded,
            snapshot_rejected: inner.snapshot_rejected,
            snapshot_written: inner.snapshot_written,
            in_flight: inner.in_flight,
            cached_entries: inner.cache.len(),
            result_cache_bytes: inner.cache_bytes,
            warm_entries: inner.warm.len(),
        }
    }

    /// Drops every cached distribution and warm group state (counters
    /// and in-flight solves are untouched; dropped entries do not count
    /// as evictions). In-progress solves keep their group state alive
    /// through their own handles and finish normally.
    pub fn purge(&self) {
        let mut inner = self.lock();
        inner.cache.clear();
        inner.cache_bytes = 0;
        inner.warm.clear();
    }

    /// Writes the current result cache to `path` as a crash-safe
    /// snapshot (see [`crate::snapshot`] for the format and the atomic
    /// write protocol). Entries are written least-recently-used first,
    /// so a later [`load_snapshot`](LifetimeService::load_snapshot)
    /// reproduces the recency order. Bumps
    /// [`ServiceStats::snapshot_written`] on success.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be written; the
    /// target is never left torn (the write goes to a temporary
    /// sibling first).
    pub fn save_snapshot(&self, path: &Path) -> Result<SnapshotWriteReport, SnapshotError> {
        let entries: Vec<SnapshotEntry> = {
            let inner = self.lock();
            // DETERMINISM-OK: the entries leave the hash map in
            // arbitrary order but are immediately sorted by the total
            // key (last_used, canonical bytes) — ticks are already
            // unique, and the tie-break makes the snapshot bytes a
            // pure function of the cache contents either way.
            let mut ordered: Vec<(&Vec<u8>, &CacheEntry)> = inner.cache.iter().collect();
            ordered.sort_by_key(|&(k, e)| (e.last_used, k.as_slice()));
            ordered
                .into_iter()
                .map(|(key, e)| SnapshotEntry {
                    scenario: key.clone(),
                    method: e.dist.method().to_string(),
                    diagnostics: *e.dist.diagnostics(),
                    points: e
                        .dist
                        .points()
                        .iter()
                        .map(|&(t, p)| (t.as_seconds(), p))
                        .collect(),
                })
                .collect()
        };
        let bytes = snapshot::encode(&entries)?;
        snapshot::write_atomic(path, &bytes)?;
        self.lock().snapshot_written += 1;
        Ok(SnapshotWriteReport {
            entries: entries.len(),
            bytes: bytes.len(),
        })
    }

    /// Revives a snapshot written by
    /// [`save_snapshot`](LifetimeService::save_snapshot) into the
    /// result cache. Never fails and never panics, whatever the file
    /// contains:
    ///
    /// * a missing file is a clean cold start (no counters move);
    /// * a file that fails structural validation (bad magic,
    ///   truncation, checksum mismatch, version skew) is rejected
    ///   wholesale — [`ServiceStats::snapshot_rejected`] counts one;
    /// * each surviving entry is re-validated from scratch: its
    ///   scenario text is re-parsed, the cache key re-derived through
    ///   [`Scenario::canonical_bytes`], the backend name interned
    ///   against this service's registry, the curve re-checked by
    ///   [`LifetimeDistribution::new`], and the stored grid compared
    ///   bit-for-bit against the scenario's own query grid. Entries
    ///   that pass count in [`ServiceStats::snapshot_loaded`];
    ///   entries that fail (or whose key is already resident, or that
    ///   exceed the cache budget) count in `snapshot_rejected`.
    ///
    /// The revived bits are exactly the bits that were cached when the
    /// snapshot was written, so the service's bit-identity invariant
    /// holds across restarts.
    pub fn load_snapshot(&self, path: &Path) -> SnapshotLoadReport {
        let mut report = SnapshotLoadReport::default();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return report,
            Err(e) => {
                report.rejected = 1;
                report.error = Some(SnapshotError::Io(e));
                self.lock().snapshot_rejected += 1;
                return report;
            }
        };
        let entries = match snapshot::decode(&bytes) {
            Ok(entries) => entries,
            Err(e) => {
                report.rejected = 1;
                report.error = Some(e);
                self.lock().snapshot_rejected += 1;
                return report;
            }
        };
        for entry in entries {
            if self.revive(entry) {
                report.loaded += 1;
            } else {
                report.rejected += 1;
            }
        }
        let mut inner = self.lock();
        inner.snapshot_loaded += report.loaded as u64;
        inner.snapshot_rejected += report.rejected as u64;
        report
    }

    /// Re-validates one snapshot entry end to end and inserts it into
    /// the cache. Returns `false` (entry dropped, nothing cached) on
    /// any doubt — revival must never produce an answer a fresh solve
    /// would not.
    fn revive(&self, entry: SnapshotEntry) -> bool {
        let Ok(text) = std::str::from_utf8(&entry.scenario) else {
            return false;
        };
        let Ok(scenario) = Scenario::from_config_str(text) else {
            return false;
        };
        let Ok(key) = scenario.canonical_bytes() else {
            return false;
        };
        // Intern the backend name against this build's registry: a
        // name nothing registered cannot have produced the curve here
        // (and `LifetimeDistribution` wants the registry's `'static`
        // string, not a leaked copy of snapshot bytes).
        let Some(method) = self.registry.find(&entry.method).map(|s| s.name()) else {
            return false;
        };
        // The stored samples must sit exactly on the scenario's own
        // query grid — same length, same time bits.
        let times = scenario.times();
        if entry.points.len() != times.len()
            || entry
                .points
                .iter()
                .zip(times)
                .any(|(&(t, _), grid)| t.to_bits() != grid.as_seconds().to_bits())
        {
            return false;
        }
        let points: Vec<(Time, f64)> = entry
            .points
            .iter()
            .map(|&(t, p)| (Time::from_seconds(t), p))
            .collect();
        let Ok(dist) = LifetimeDistribution::new(method, points, entry.diagnostics) else {
            return false;
        };
        if dist.size_in_bytes() > self.config.cache_capacity_bytes {
            return false;
        }
        let family = family_key(&scenario);
        let mut inner = self.lock();
        // A resident key keeps its live entry: replacing it would
        // double-charge the byte ledger for nothing.
        if inner.cache.contains_key(&key) {
            return false;
        }
        inner.insert_cached(key, dist, family, self.config.cache_capacity_bytes);
        true
    }
}

impl fmt::Debug for LifetimeService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LifetimeService")
            .field("registry", &self.registry)
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{Capability, LifetimeSolver};
    use crate::workload::Workload;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use units::{Charge, Current, Frequency, Time};

    /// A cheap linear scenario (Sericola backend, no warm state).
    fn linear(seed: u64) -> Scenario {
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        Scenario::builder()
            .name("svc-linear")
            .workload(w)
            .capacity(Charge::from_amp_seconds(72.0))
            .linear()
            .times(
                (1..=8)
                    .map(|i| Time::from_seconds(i as f64 * 20.0))
                    .collect(),
            )
            .delta(Charge::from_amp_seconds(0.5))
            .simulation(50, seed)
            .build()
            .unwrap()
    }

    /// A counting backend: exact, instant, records every solve.
    struct Counting {
        solves: Arc<AtomicUsize>,
    }
    impl LifetimeSolver for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn capability(&self, _s: &Scenario) -> Capability {
            Capability::Exact
        }
        fn solve(&self, s: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
            self.solves.fetch_add(1, Ordering::SeqCst);
            let points = s
                .times()
                .iter()
                .enumerate()
                .map(|(i, &t)| (t, (i as f64 + 1.0) / (s.times().len() as f64 + 1.0)))
                .collect();
            LifetimeDistribution::new("counting", points, Default::default())
        }
    }

    /// A backend that parks inside solve() until released — the load
    /// generator for shedding and single-flight tests.
    struct Blocking {
        solves: Arc<AtomicUsize>,
        entered: mpsc::Sender<()>,
        release: Arc<(Mutex<bool>, Condvar)>,
    }
    impl Blocking {
        fn release(gate: &Arc<(Mutex<bool>, Condvar)>) {
            let (lock, cv) = &**gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
    }
    impl LifetimeSolver for Blocking {
        fn name(&self) -> &'static str {
            "blocking"
        }
        fn capability(&self, _s: &Scenario) -> Capability {
            Capability::Exact
        }
        fn solve(&self, s: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
            self.solves.fetch_add(1, Ordering::SeqCst);
            let _ = self.entered.send(());
            let (lock, cv) = &*self.release;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            drop(open);
            let points = s.times().iter().map(|&t| (t, 0.5)).collect();
            LifetimeDistribution::new("blocking", points, Default::default())
        }
    }

    fn counting_service(budget_bytes: usize) -> (LifetimeService, Arc<AtomicUsize>) {
        let solves = Arc::new(AtomicUsize::new(0));
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(Counting {
            solves: Arc::clone(&solves),
        }));
        let service = LifetimeService::with_config(
            registry,
            ServiceConfig::default().with_cache_capacity_bytes(budget_bytes),
        );
        (service, solves)
    }

    #[test]
    fn cache_hits_share_bits_and_storage() {
        let (service, solves) = counting_service(32 << 20);
        let s = linear(1);
        let a = service.query(&s).unwrap();
        let b = service.query(&s).unwrap();
        assert_eq!(solves.load(Ordering::SeqCst), 1, "second query is a hit");
        assert_eq!(a.points(), b.points());
        // The hit is a shared view, not a copy.
        assert!(std::ptr::eq(a.points().as_ptr(), b.points().as_ptr()));
        // A name-only variant hits too: the canonical key erases names.
        let c = service.query(&s.with_name("other-label")).unwrap();
        assert_eq!(solves.load(Ordering::SeqCst), 1);
        assert_eq!(c.points(), a.points());
        let stats = service.stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));
        assert_eq!(stats.cached_entries, 1);
        assert_eq!(stats.result_cache_bytes, a.size_in_bytes());
        assert!(stats.hit_rate() > 0.6);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let probe = {
            let (service, _) = counting_service(usize::MAX);
            service.query(&linear(1)).unwrap().size_in_bytes()
        };
        // Room for exactly two entries.
        let (service, solves) = counting_service(2 * probe);
        let (a, b, c) = (linear(1), linear(2), linear(3));
        service.query(&a).unwrap();
        service.query(&b).unwrap();
        service.query(&a).unwrap(); // touch a: b is now least recent
        service.query(&c).unwrap(); // evicts b
        assert_eq!(service.stats().evictions, 1);
        assert_eq!(service.stats().cached_entries, 2);
        let before = solves.load(Ordering::SeqCst);
        service.query(&a).unwrap(); // still resident
        assert_eq!(solves.load(Ordering::SeqCst), before, "a stayed cached");
        service.query(&b).unwrap(); // evicted: must re-solve
        assert_eq!(solves.load(Ordering::SeqCst), before + 1, "b was evicted");
        // Re-querying b evicted the next LRU victim (c after a's touch…
        // a was touched last, so c goes).
        assert_eq!(service.stats().evictions, 2);
    }

    #[test]
    fn zero_budget_disables_caching_but_not_dedup() {
        let (service, solves) = counting_service(0);
        let s = linear(1);
        service.query(&s).unwrap();
        service.query(&s).unwrap();
        assert_eq!(solves.load(Ordering::SeqCst), 2, "nothing cached");
        let stats = service.stats();
        assert_eq!(stats.cached_entries, 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn shed_under_load_is_typed_and_harmless() {
        let solves = Arc::new(AtomicUsize::new(0));
        let (entered_tx, entered_rx) = mpsc::channel();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(Blocking {
            solves: Arc::clone(&solves),
            entered: entered_tx,
            release: Arc::clone(&gate),
        }));
        let service = Arc::new(LifetimeService::with_config(
            registry,
            ServiceConfig::default().with_max_in_flight(1),
        ));

        let occupant = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.query(&linear(1)))
        };
        entered_rx.recv().expect("first query reached the backend");
        // The budget is full: a *different* scenario is shed…
        let err = service.query(&linear(2)).expect_err("must shed");
        assert!(matches!(
            err,
            ServiceError::Overloaded {
                in_flight: 1,
                limit: 1
            }
        ));
        assert!(err.to_string().contains("overloaded"));
        Blocking::release(&gate);
        let first = occupant.join().unwrap().expect("occupant succeeds");
        assert_eq!(first.points().len(), 8);
        let stats = service.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(
            solves.load(Ordering::SeqCst),
            1,
            "shed query computed nothing"
        );
        // After the flight drains, the same scenario is admitted again.
        assert!(service.query(&linear(2)).is_ok());
    }

    #[test]
    fn identical_concurrent_queries_join_instead_of_shedding() {
        let solves = Arc::new(AtomicUsize::new(0));
        let (entered_tx, entered_rx) = mpsc::channel();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(Blocking {
            solves: Arc::clone(&solves),
            entered: entered_tx,
            release: Arc::clone(&gate),
        }));
        // max_in_flight = 1: joiners must not count against the budget.
        let service = Arc::new(LifetimeService::with_config(
            registry,
            ServiceConfig::default().with_max_in_flight(1),
        ));
        let s = linear(1);
        let owner = {
            let (service, s) = (Arc::clone(&service), s.clone());
            std::thread::spawn(move || service.query(&s))
        };
        entered_rx.recv().expect("owner reached the backend");
        let joiners: Vec<_> = (0..3)
            .map(|_| {
                let (service, s) = (Arc::clone(&service), s.clone());
                std::thread::spawn(move || service.query(&s))
            })
            .collect();
        // Joining is registration, not completion — give the threads a
        // moment to park, then release the one real solve.
        while service.stats().joined < 3 {
            std::thread::yield_now();
        }
        Blocking::release(&gate);
        let reference = owner.join().unwrap().unwrap();
        for j in joiners {
            let d = j.join().unwrap().expect("joiner shares the result");
            assert_eq!(d.points(), reference.points());
        }
        assert_eq!(solves.load(Ordering::SeqCst), 1, "one solve for 4 queries");
        let stats = service.stats();
        assert_eq!((stats.misses, stats.joined, stats.shed), (1, 3, 0));
    }

    #[test]
    fn errors_propagate_to_joiners_and_are_not_cached() {
        struct Failing {
            solves: Arc<AtomicUsize>,
        }
        impl LifetimeSolver for Failing {
            fn name(&self) -> &'static str {
                "failing"
            }
            fn capability(&self, _s: &Scenario) -> Capability {
                Capability::Exact
            }
            fn solve(&self, _s: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
                self.solves.fetch_add(1, Ordering::SeqCst);
                Err(KibamRmError::InvalidWorkload("synthetic failure".into()))
            }
        }
        let solves = Arc::new(AtomicUsize::new(0));
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(Failing {
            solves: Arc::clone(&solves),
        }));
        let service = LifetimeService::new(registry);
        let s = linear(1);
        let err = service.query(&s).expect_err("solve fails");
        assert!(matches!(err, ServiceError::Solve(_)));
        // Errors are not cached: the next query re-solves.
        let _ = service.query(&s).expect_err("still fails");
        assert_eq!(solves.load(Ordering::SeqCst), 2);
        let stats = service.stats();
        assert_eq!(stats.errors, 2);
        assert_eq!(stats.cached_entries, 0);
    }

    #[test]
    fn real_registry_serves_bit_identical_answers_and_reuses_warm_state() {
        // Sequential options keep grouped and independent solves
        // unconditionally bit-identical (see the sweep contract).
        let options = SolverOptions::sequential();
        let registry = SolverRegistry::with_default_backends().with_options(options);
        let service = LifetimeService::with_config(
            SolverRegistry::with_default_backends(),
            ServiceConfig::default().with_options(options),
        );
        let base = Scenario::paper_cell_phone().unwrap();
        let family: Vec<Scenario> = [1.0, 0.5, 0.25]
            .iter()
            .map(|&g| base.with_rate_scale(g).unwrap())
            .collect();
        for s in &family {
            let served = service.query(s).unwrap();
            let fresh = registry.solve(s).unwrap();
            assert_eq!(
                served.points(),
                fresh.points(),
                "service answer differs from a fresh solve for {}",
                s.name()
            );
            // And the cached copy is the same bits again.
            assert_eq!(service.query(s).unwrap().points(), fresh.points());
        }
        let stats = service.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 3);
        // The rescale family shares one live group: first member creates
        // the warm state, the rest find it resident.
        assert_eq!(stats.warm_misses, 1);
        assert_eq!(stats.warm_hits, 2);
        assert_eq!(stats.warm_entries, 1);
    }

    #[test]
    fn rate_scaled_sibling_of_a_warm_windowed_entry_extends_the_shared_sweep() {
        // Windowed banded storage forced (Auto picks CSR at this Δ): the
        // horizon-free trim schedule lets a rate-scaled sibling extend or
        // remix the warm group's sweep instead of starting its own.
        let options = SolverOptions {
            representation: markov::transient::Representation::Banded,
            ..SolverOptions::sequential()
        };
        let config = ServiceConfig::default().with_options(options);
        let service = LifetimeService::with_config(SolverRegistry::with_default_backends(), config);
        let base = Scenario::paper_cell_phone()
            .unwrap()
            .with_delta(Charge::from_milliamp_hours(50.0));
        let warm = base.with_rate_scale(0.5).unwrap();
        let sibling = base.with_rate_scale(1.0).unwrap();
        let shared_in_group = |service: &LifetimeService| {
            let slot = service
                .lock()
                .warm
                .values()
                .next()
                .map(|entry| Arc::clone(&entry.state))
                .expect("one warm group");
            let mut state = slot.lock().unwrap();
            state
                .as_any_mut()
                .downcast_mut::<crate::solver::DiscretisationGroupState>()
                .expect("discretisation warm state")
                .last_solve_shared()
        };
        let first = service.query(&warm).unwrap();
        assert!(!shared_in_group(&service), "the first member sweeps fresh");
        let extended = service.query(&sibling).unwrap();
        assert!(shared_in_group(&service), "the sibling shares the sweep");
        let fresh = |s: &Scenario| {
            LifetimeService::with_config(SolverRegistry::with_default_backends(), config)
                .query(s)
                .unwrap()
        };
        let fresh_sibling = fresh(&sibling);
        assert_eq!(extended.points(), fresh_sibling.points());
        // Extension-only work: the sibling ran just the products past
        // the warm sweep.
        let iterations = |d: &LifetimeDistribution| d.diagnostics().iterations.unwrap();
        assert_eq!(
            iterations(&first) + iterations(&extended),
            iterations(&fresh_sibling)
        );
        assert!(iterations(&extended) < iterations(&fresh_sibling));
        // A smaller sibling is a pure remix of the now longer sweep.
        let smaller = base.with_rate_scale(0.25).unwrap();
        let remixed = service.query(&smaller).unwrap();
        assert!(shared_in_group(&service));
        assert_eq!(iterations(&remixed), 0);
        assert_eq!(remixed.points(), fresh(&smaller).points());
        let stats = service.stats();
        assert_eq!((stats.warm_misses, stats.warm_hits), (1, 2));
    }

    #[test]
    fn warm_state_eviction_and_purge() {
        let options = SolverOptions::sequential();
        let service = LifetimeService::with_config(
            SolverRegistry::with_default_backends(),
            ServiceConfig::default()
                .with_options(options)
                .with_warm_capacity(1),
        );
        let base = Scenario::paper_cell_phone().unwrap();
        let coarse = base.with_delta(Charge::from_milliamp_hours(50.0));
        service.query(&base).unwrap();
        // A different Δ is a different fingerprint: with capacity 1 the
        // first group is evicted.
        service.query(&coarse).unwrap();
        let stats = service.stats();
        assert_eq!(stats.warm_evictions, 1);
        assert_eq!(stats.warm_entries, 1);
        service.purge();
        let stats = service.stats();
        assert_eq!((stats.cached_entries, stats.warm_entries), (0, 0));
        assert_eq!(stats.result_cache_bytes, 0);
        // Counters survive; the next identical query is a miss again.
        assert_eq!(stats.misses, 2);
        service.query(&base).unwrap();
        assert_eq!(service.stats().misses, 3);
    }

    #[test]
    fn unkeyable_scenarios_are_served_uncached() {
        let w = crate::builder::WorkloadBuilder::new()
            .state("has space", Current::from_amps(0.5))
            .build()
            .unwrap();
        let s = Scenario::builder()
            .workload(w)
            .capacity(Charge::from_coulombs(100.0))
            .linear()
            .time_grid(Time::from_seconds(400.0), 4)
            .delta(Charge::from_coulombs(0.5))
            .simulation(20, 1)
            .build()
            .unwrap();
        let service = LifetimeService::with_config(
            SolverRegistry::with_default_backends(),
            ServiceConfig::default().with_options(SolverOptions::sequential()),
        );
        let a = service.query(&s).unwrap();
        let b = service.query(&s).unwrap();
        assert_eq!(a.points(), b.points());
        let stats = service.stats();
        assert_eq!(stats.uncacheable, 2, "served, but never cached");
        assert_eq!(stats.cached_entries, 0);
        assert_eq!(stats.hits + stats.misses, 0);
    }

    #[test]
    fn config_knobs_and_display() {
        let cfg = ServiceConfig::default()
            .with_max_in_flight(3)
            .with_cache_capacity_bytes(1024)
            .with_warm_capacity(2)
            .with_options(SolverOptions::sequential());
        assert_eq!(cfg.max_in_flight, 3);
        assert_eq!(cfg.cache_capacity_bytes, 1024);
        assert_eq!(cfg.warm_capacity, 2);
        let service = LifetimeService::with_config(SolverRegistry::with_default_backends(), cfg);
        assert_eq!(*service.config(), cfg);
        assert!(service.registry().find("sericola").is_some());
        assert!(format!("{service:?}").contains("LifetimeService"));
        let err = ServiceError::Overloaded {
            in_flight: 9,
            limit: 8,
        };
        assert!(err.to_string().contains("9 solves in flight (limit 8)"));
        assert!(std::error::Error::source(&err).is_none());
        let err: ServiceError = KibamRmError::InvalidWorkload("x".into()).into();
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!(ServiceStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn expired_deadline_fails_fast_without_solving() {
        let (service, solves) = counting_service(32 << 20);
        let opts = QueryOptions::new().with_deadline(Duration::ZERO);
        let err = service
            .query_with(&linear(1), &opts)
            .expect_err("deadline already expired");
        assert!(matches!(
            err,
            ServiceError::DeadlineExceeded { completed: 0 }
        ));
        assert!(err.to_string().contains("deadline exceeded"));
        assert!(!err.retryable(), "the budget is spent: retrying is futile");
        assert_eq!(
            solves.load(Ordering::SeqCst),
            0,
            "an expired deadline must never run the solve"
        );
        let stats = service.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.degraded_served, 0);
        assert_eq!(stats.in_flight, 0, "no flight leaked");
        // The failure was not cached; a plain query still works.
        assert!(service.query(&linear(1)).is_ok());
    }

    #[test]
    fn deadline_with_degraded_ok_serves_cached_family_variant() {
        let (service, solves) = counting_service(32 << 20);
        let s = linear(1);
        let exact = service.query(&s).unwrap();
        // Same structural family, different Δ — and no time to solve it.
        let coarse = s.with_delta(Charge::from_amp_seconds(2.0));
        let opts = QueryOptions::new()
            .with_deadline(Duration::ZERO)
            .allow_degraded();
        let answer = service.query_with(&coarse, &opts).unwrap();
        assert!(answer.is_degraded());
        match answer {
            Answer::Degraded {
                ref dist,
                bound,
                source: DegradedSource::CachedFamily { delta },
            } => {
                assert_eq!(dist.points(), exact.points(), "served the family variant");
                // The counting backend is Δ-independent: exact bound.
                assert_eq!(bound, 0.0);
                assert_eq!(delta, None);
            }
            ref other => panic!("expected a cached-family answer, got {other:?}"),
        }
        assert_eq!(solves.load(Ordering::SeqCst), 1, "only the first solve ran");
        let stats = service.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.degraded_served, 1);
        assert_eq!(stats.cached_entries, 1, "degraded answers are never cached");
    }

    #[test]
    fn deadline_without_family_falls_back_to_fast_simulation() {
        let (service, solves) = counting_service(32 << 20);
        let opts = QueryOptions::new()
            .with_deadline(Duration::ZERO)
            .allow_degraded();
        let answer = service.query_with(&linear(7), &opts).unwrap();
        match answer {
            Answer::Degraded {
                ref dist,
                bound,
                source: DegradedSource::FastSimulation { runs },
            } => {
                assert_eq!(dist.points().len(), 8);
                assert!(
                    bound > 0.0 && bound < 1.0,
                    "a Monte Carlo answer carries a real Wilson bound, got {bound}"
                );
                assert_eq!(runs, ServiceConfig::default().degraded_runs);
            }
            ref other => panic!("expected a fast-simulation answer, got {other:?}"),
        }
        assert_eq!(solves.load(Ordering::SeqCst), 0, "exact solve never ran");
        let stats = service.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.degraded_served, 1);
        assert_eq!(stats.cached_entries, 0, "degraded answers are never cached");
    }

    #[test]
    fn transient_failures_retry_with_backoff_then_succeed() {
        /// Fails with a transient (retryable) error `failures` times,
        /// then answers.
        struct Flaky {
            solves: Arc<AtomicUsize>,
            failures: usize,
        }
        impl LifetimeSolver for Flaky {
            fn name(&self) -> &'static str {
                "flaky"
            }
            fn capability(&self, _s: &Scenario) -> Capability {
                Capability::Exact
            }
            fn solve(&self, s: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
                let n = self.solves.fetch_add(1, Ordering::SeqCst);
                if n < self.failures {
                    return Err(KibamRmError::Markov(markov::MarkovError::NoConvergence(
                        "injected transient fault".into(),
                    )));
                }
                let points = s.times().iter().map(|&t| (t, 0.25)).collect();
                LifetimeDistribution::new("flaky", points, Default::default())
            }
        }
        let solves = Arc::new(AtomicUsize::new(0));
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(Flaky {
            solves: Arc::clone(&solves),
            failures: 2,
        }));
        let service = LifetimeService::new(registry);
        let s = linear(1);
        // Without a retry policy the transient error surfaces — and is
        // classified retryable so the caller knows a retry makes sense.
        let err = service
            .query_with(&s, &QueryOptions::new())
            .expect_err("first attempt fails");
        assert!(err.retryable());
        solves.store(0, Ordering::SeqCst);
        // With a budget of two retries the third attempt answers.
        let opts = QueryOptions::new().with_retry(
            RetryPolicy::retries(2)
                .with_backoff(Duration::from_millis(1), Duration::from_millis(4)),
        );
        let answer = service.query_with(&s, &opts).unwrap();
        assert!(!answer.is_degraded());
        assert_eq!(answer.bound(), None);
        assert_eq!(solves.load(Ordering::SeqCst), 3, "two retries, one success");
        assert_eq!(service.stats().retries, 2);
    }

    #[test]
    fn breaker_trips_sheds_and_recovers_through_half_open() {
        /// Fails (permanently, non-retryable) while `failing` is set.
        struct Toggle {
            solves: Arc<AtomicUsize>,
            failing: Arc<std::sync::atomic::AtomicBool>,
        }
        impl LifetimeSolver for Toggle {
            fn name(&self) -> &'static str {
                "toggle"
            }
            fn capability(&self, _s: &Scenario) -> Capability {
                Capability::Exact
            }
            fn solve(&self, s: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
                self.solves.fetch_add(1, Ordering::SeqCst);
                if self.failing.load(Ordering::SeqCst) {
                    return Err(KibamRmError::InvalidWorkload("injected hard fault".into()));
                }
                let points = s.times().iter().map(|&t| (t, 0.5)).collect();
                LifetimeDistribution::new("toggle", points, Default::default())
            }
        }
        let solves = Arc::new(AtomicUsize::new(0));
        let failing = Arc::new(std::sync::atomic::AtomicBool::new(true));
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(Toggle {
            solves: Arc::clone(&solves),
            failing: Arc::clone(&failing),
        }));
        let cooldown = Duration::from_millis(25);
        let service = LifetimeService::with_config(
            registry,
            ServiceConfig::default().with_breaker(2, cooldown),
        );
        // Two consecutive failures trip the breaker…
        assert!(service.query(&linear(1)).is_err());
        assert!(service.query(&linear(2)).is_err());
        // …so the third request sheds without touching the backend.
        let err = service.query(&linear(3)).expect_err("breaker is open");
        assert!(matches!(
            err,
            ServiceError::CircuitOpen { backend: "toggle" }
        ));
        assert!(err.to_string().contains("circuit breaker open"));
        assert!(err.retryable(), "open breakers heal: retry later is sane");
        assert_eq!(
            solves.load(Ordering::SeqCst),
            2,
            "shed query computed nothing"
        );
        assert_eq!(service.stats().breaker_open, 1);
        // After the cooldown one probe goes through; it fails, so the
        // breaker re-opens and the follow-up sheds again.
        std::thread::sleep(cooldown + Duration::from_millis(5));
        assert!(matches!(
            service.query(&linear(4)).expect_err("probe fails"),
            ServiceError::Solve(_)
        ));
        assert!(matches!(
            service.query(&linear(5)).expect_err("re-opened"),
            ServiceError::CircuitOpen { .. }
        ));
        // Heal the backend: the next probe closes the breaker for good.
        failing.store(false, Ordering::SeqCst);
        std::thread::sleep(cooldown + Duration::from_millis(5));
        assert!(service.query(&linear(6)).is_ok());
        assert!(service.query(&linear(7)).is_ok());
        let stats = service.stats();
        assert_eq!(stats.breaker_open, 2);
        assert_eq!(stats.errors, 3, "two trips plus the failed probe");
    }

    #[test]
    fn joiner_deadline_expires_while_flight_completes_normally() {
        let solves = Arc::new(AtomicUsize::new(0));
        let (entered_tx, entered_rx) = mpsc::channel();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(Blocking {
            solves: Arc::clone(&solves),
            entered: entered_tx,
            release: Arc::clone(&gate),
        }));
        let service = Arc::new(LifetimeService::new(registry));
        let s = linear(1);
        let owner = {
            let (service, s) = (Arc::clone(&service), s.clone());
            std::thread::spawn(move || service.query(&s))
        };
        entered_rx.recv().expect("owner reached the backend");
        // The joiner's deadline expires while the owner still holds the
        // flight: it gets a typed timeout, the flight is unharmed.
        let opts = QueryOptions::new().with_deadline(Duration::from_millis(20));
        let err = service.query_with(&s, &opts).expect_err("joiner times out");
        assert!(matches!(err, ServiceError::DeadlineExceeded { .. }));
        Blocking::release(&gate);
        let owned = owner.join().unwrap().expect("owner still succeeds");
        assert_eq!(owned.points().len(), 8);
        let stats = service.stats();
        assert_eq!(stats.joined, 1);
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.in_flight, 0, "no flight leaked");
        assert_eq!(solves.load(Ordering::SeqCst), 1);
        // The owner's answer was cached despite the joiner's timeout.
        assert_eq!(service.query(&s).unwrap().points(), owned.points());
        assert_eq!(service.stats().hits, 1);
    }

    #[test]
    fn service_deadline_cut_solve_then_full_solve_is_bit_identical() {
        let options = SolverOptions::sequential();
        let registry = SolverRegistry::with_default_backends().with_options(options);
        let service = LifetimeService::with_config(
            SolverRegistry::with_default_backends(),
            ServiceConfig::default().with_options(options),
        );
        let s = Scenario::paper_cell_phone().unwrap();
        // A 2 ms deadline lands mid-uniformisation on this model (it
        // takes much longer); on a pathologically fast machine the solve
        // finishes instead — both are legal, the invariant under test is
        // that an interrupted solve never corrupts later exact answers.
        let opts = QueryOptions::new().with_deadline(Duration::from_millis(2));
        match service.query_with(&s, &opts) {
            Err(ServiceError::DeadlineExceeded { .. }) => {}
            Ok(answer) => assert!(!answer.is_degraded()),
            Err(other) => panic!("unexpected error: {other}"),
        }
        let served = service.query(&s).expect("full solve succeeds");
        let fresh = registry.solve(&s).unwrap();
        assert_eq!(
            served.points(),
            fresh.points(),
            "an interrupted solve must not perturb the exact answer"
        );
        assert_eq!(service.stats().in_flight, 0);
    }

    #[test]
    fn retryable_classification_spans_every_variant() {
        assert!(ServiceError::Overloaded {
            in_flight: 2,
            limit: 1
        }
        .retryable());
        assert!(ServiceError::CircuitOpen { backend: "x" }.retryable());
        assert!(!ServiceError::DeadlineExceeded { completed: 3 }.retryable());
        assert!(
            ServiceError::Solve(KibamRmError::Markov(markov::MarkovError::NoConvergence(
                "t".into()
            )))
            .retryable()
        );
        assert!(!ServiceError::Solve(KibamRmError::InvalidWorkload("x".into())).retryable());
        assert!(!ServiceError::Solve(KibamRmError::DeadlineExceeded { completed: 1 }).retryable());
        // Display and source round-trips for the new variants.
        let deadline = ServiceError::DeadlineExceeded { completed: 41 };
        assert!(deadline.to_string().contains("41"));
        assert!(std::error::Error::source(&deadline).is_none());
        let open = ServiceError::CircuitOpen { backend: "disc" };
        assert!(open.to_string().contains("disc"));
        assert!(std::error::Error::source(&open).is_none());
    }

    #[test]
    fn query_options_and_retry_policy_builders() {
        let opts = QueryOptions::new()
            .with_deadline(Duration::from_secs(1))
            .allow_degraded()
            .with_retry(RetryPolicy::retries(3));
        assert_eq!(opts.deadline, Some(Duration::from_secs(1)));
        assert!(opts.degraded_ok);
        assert_eq!(opts.retry.max_retries, 3);
        let policy = RetryPolicy::retries(4)
            .with_backoff(Duration::from_millis(2), Duration::from_millis(5));
        assert_eq!(policy.backoff_for(1), Duration::from_millis(2));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(4));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(5), "capped");
        assert_eq!(policy.backoff_for(64), Duration::from_millis(5), "capped");
        assert_eq!(RetryPolicy::default().max_retries, 0);
        let cfg = ServiceConfig::default()
            .with_breaker(7, Duration::from_secs(2))
            .with_degraded_fallback(Duration::from_millis(100), 64);
        assert_eq!(cfg.breaker_threshold, 7);
        assert_eq!(cfg.breaker_cooldown, Duration::from_secs(2));
        assert_eq!(cfg.degraded_grace, Duration::from_millis(100));
        assert_eq!(cfg.degraded_runs, 64);
    }

    /// A unique temp path for one snapshot test.
    fn snap_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kibamrm-svc-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.snap"))
    }

    #[test]
    fn equal_cache_contents_write_byte_identical_snapshots() {
        // Solve timings differ run to run; they must never reach the
        // snapshot bytes, so two services holding the same answers
        // write the same file.
        let base = Scenario::paper_cell_phone()
            .unwrap()
            .with_delta(Charge::from_milliamp_hours(50.0));
        let family = [base.clone(), base.with_rate_scale(0.5).unwrap()];
        let mut files = Vec::new();
        for tag in ["equal-a", "equal-b"] {
            let service = LifetimeService::new(SolverRegistry::with_default_backends());
            for s in &family {
                service.query(s).unwrap();
            }
            let path = snap_path(tag);
            assert_eq!(service.save_snapshot(&path).unwrap().entries, 2);
            files.push(std::fs::read(&path).unwrap());
            let _ = std::fs::remove_file(&path);
        }
        assert_eq!(files[0], files[1]);
    }

    #[test]
    fn snapshot_round_trip_revives_identical_bits() {
        let (service, solves) = counting_service(32 << 20);
        let scenarios: Vec<Scenario> = (1..=3).map(linear).collect();
        let originals: Vec<LifetimeDistribution> = scenarios
            .iter()
            .map(|s| service.query(s).unwrap())
            .collect();
        let path = snap_path("round-trip");
        let report = service.save_snapshot(&path).unwrap();
        assert_eq!(report.entries, 3);
        assert!(report.bytes > snapshot::HEADER_LEN);
        assert_eq!(service.stats().snapshot_written, 1);

        // A fresh process: same backends, empty cache.
        let (revived, revived_solves) = counting_service(32 << 20);
        let load = revived.load_snapshot(&path);
        assert_eq!((load.loaded, load.rejected), (3, 0));
        assert!(load.error.is_none());
        assert!(!load.is_cold());
        for (s, original) in scenarios.iter().zip(&originals) {
            let served = revived.query(s).unwrap();
            assert_eq!(served.points(), original.points(), "bits differ for {s:?}");
            assert_eq!(served.method(), original.method());
        }
        assert_eq!(
            revived_solves.load(Ordering::SeqCst),
            0,
            "every post-restart query was a warm hit"
        );
        let stats = revived.stats();
        assert_eq!(stats.snapshot_loaded, 3);
        assert_eq!(stats.snapshot_rejected, 0);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 0);
        assert_eq!(
            stats.result_cache_bytes,
            service.stats().result_cache_bytes,
            "the byte ledger survives the round trip"
        );
        drop(solves);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_load_preserves_lru_order() {
        let probe = {
            let (service, _) = counting_service(usize::MAX);
            service.query(&linear(1)).unwrap().size_in_bytes()
        };
        let (service, _) = counting_service(3 * probe);
        let (a, b, c) = (linear(1), linear(2), linear(3));
        service.query(&a).unwrap();
        service.query(&b).unwrap();
        service.query(&c).unwrap();
        service.query(&a).unwrap(); // a is most recent: LRU order b, c, a
        let path = snap_path("lru-order");
        service.save_snapshot(&path).unwrap();

        // Revive into a cache with room for the same three entries,
        // then insert a fourth: b must be the victim.
        let (revived, _) = counting_service(3 * probe);
        assert_eq!(revived.load_snapshot(&path).loaded, 3);
        revived.query(&linear(4)).unwrap();
        assert_eq!(revived.stats().evictions, 1);
        let before = revived.stats().misses;
        revived.query(&a).unwrap();
        revived.query(&c).unwrap();
        assert_eq!(revived.stats().misses, before, "a and c stayed resident");
        revived.query(&b).unwrap();
        assert_eq!(
            revived.stats().misses,
            before + 1,
            "b was the least-recently-used revived entry"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_missing_file_is_a_clean_cold_start() {
        let (service, _) = counting_service(32 << 20);
        let load = service.load_snapshot(Path::new("/nonexistent/kibamrm-nowhere.snap"));
        assert_eq!((load.loaded, load.rejected), (0, 0));
        assert!(load.error.is_none());
        assert!(load.is_cold());
        let stats = service.stats();
        assert_eq!((stats.snapshot_loaded, stats.snapshot_rejected), (0, 0));
    }

    #[test]
    fn snapshot_corruption_rejects_wholesale_and_counts_once() {
        let (service, _) = counting_service(32 << 20);
        service.query(&linear(1)).unwrap();
        let path = snap_path("corrupt");
        service.save_snapshot(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (revived, _) = counting_service(32 << 20);
        let load = revived.load_snapshot(&path);
        assert_eq!((load.loaded, load.rejected), (0, 1));
        assert!(matches!(load.error, Some(SnapshotError::Corrupt(_))));
        assert!(load.is_cold());
        let stats = revived.stats();
        assert_eq!(stats.snapshot_rejected, 1);
        assert_eq!(stats.cached_entries, 0, "nothing revived from a bad file");
        // The service still answers normally after the cold start.
        assert!(revived.query(&linear(1)).is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_entries_skip_resident_keys_and_unknown_backends() {
        let (service, _) = counting_service(32 << 20);
        service.query(&linear(1)).unwrap();
        service.query(&linear(2)).unwrap();
        let path = snap_path("skips");
        service.save_snapshot(&path).unwrap();

        // One key already resident: only the other entry is revived.
        let (half_warm, _) = counting_service(32 << 20);
        half_warm.query(&linear(1)).unwrap();
        let load = half_warm.load_snapshot(&path);
        assert_eq!((load.loaded, load.rejected), (1, 1));
        assert_eq!(half_warm.stats().cached_entries, 2);
        assert_eq!(
            half_warm.stats().result_cache_bytes,
            service.stats().result_cache_bytes,
            "skipping the resident key keeps the byte ledger exact"
        );

        // A registry that never had the "counting" backend rejects
        // every entry: the method cannot be interned.
        let strangers = LifetimeService::new(SolverRegistry::with_default_backends());
        let load = strangers.load_snapshot(&path);
        assert_eq!((load.loaded, load.rejected), (0, 2));
        assert_eq!(strangers.stats().snapshot_rejected, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_rejects_curves_off_the_scenario_grid() {
        let (service, _) = counting_service(32 << 20);
        service.query(&linear(1)).unwrap();
        let path = snap_path("grid");
        service.save_snapshot(&path).unwrap();

        // Re-encode the snapshot with one sample time nudged off the
        // scenario's grid: structurally valid, semantically wrong.
        let mut entries = snapshot::decode(&std::fs::read(&path).unwrap()).unwrap();
        entries[0].points[0].0 += 1.0;
        snapshot::write_atomic(&path, &snapshot::encode(&entries).unwrap()).unwrap();

        let (revived, revived_solves) = counting_service(32 << 20);
        let load = revived.load_snapshot(&path);
        assert_eq!((load.loaded, load.rejected), (0, 1));
        // The rejected entry costs a fresh solve — never a wrong answer.
        revived.query(&linear(1)).unwrap();
        assert_eq!(revived_solves.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_file(&path);
    }
}
