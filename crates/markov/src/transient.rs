//! Transient analysis by uniformisation.
//!
//! The paper's algorithm (§5) reduces the battery-lifetime distribution to
//! transient state probabilities of a derived CTMC:
//! `π(t) = Σ_n ψ(n; νt) · α Pⁿ` with `P = I + Q/ν`. Two engines are
//! provided:
//!
//! * [`transient_distribution`] — the full distribution at one time point;
//! * [`measure_curve`] — a whole curve `t ↦ m·π(t)` for a fixed linear
//!   functional `m` (e.g. the indicator of the battery-empty states).
//!
//! The curve engine exploits that the iterates `v_n = α Pⁿ` do **not**
//! depend on `t`: one sweep of sparse matrix–vector products up to the
//! largest right truncation point serves every requested time point, after
//! which each point only needs its own Poisson weights. It also detects
//! stationarity of the iterate sequence (all interesting chains here are
//! absorbing) and stops multiplying once `v_n` has converged.
//!
//! Both engines run on the zero-respawn hot path: `Pᵀ` is emitted
//! directly from the generator — in **banded (DIA) form** when the chain
//! is a lattice ([`Ctmc::uniformised_transposed_auto`]), generic CSR
//! otherwise — the worker pool is spawned **once per call** and fed row
//! blocks ([`crate::pool::SpmvPool`], which dispatches on the matrix
//! representation), the curve engine's per-iteration measure is folded
//! into the product (fused SpMV+dot), and Poisson windows for the
//! individual time points reuse one Fox–Glynn workspace
//! ([`crate::foxglynn::FoxGlynnCache`]), recomputed only when the time
//! point actually changes (the requested times are visited in sorted
//! order, so duplicates are free).
//!
//! # The active window
//!
//! On banded chains the engines additionally track the contiguous
//! support interval of the iterate. `v_0 = α` is a point mass at the
//! full-charge state; each product can widen the support by at most the
//! extreme diagonal offsets ([`crate::banded::BandedMatrix::grow_window`]), and the
//! tiny probabilities at the window edges are trimmed with **explicit
//! deficit accounting**: the total trimmed mass is capped so that,
//! together with the Fox–Glynn truncation (which gets the other half of
//! the ε budget), the result stays within the requested tolerance.
//! Early iterations therefore touch `O(bandwidth · |support|)` entries
//! instead of all of them — for fine-`Δ` grids the overwhelming
//! majority of the state space is never visited.

use crate::banded::TransitionMatrix;
use crate::budget::Budget;
use crate::ctmc::Ctmc;
use crate::foxglynn::FoxGlynnCache;
use crate::pool::SpmvPool;
use crate::MarkovError;
use std::ops::Range;

/// Which storage format the transient engines iterate with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Representation {
    /// Probe the chain's structure and pick banded when profitable
    /// (the default; lattice chains go banded, unstructured ones CSR).
    #[default]
    Auto,
    /// Force generic CSR (the pre-banded engine, kept as the reference
    /// and for benchmark baselines).
    Csr,
    /// Force banded storage even when the profitability heuristic says
    /// otherwise (benchmarks; dense/unstructured chains pay for it).
    Banded,
}

/// Options for the uniformisation engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientOptions {
    /// Total truncation error bound: covers the Poisson tails, and —
    /// when the active window is on — the trimmed window mass too (the
    /// budget is split evenly between the two sources).
    pub epsilon: f64,
    /// Uniformisation rate is `factor · max_i q_i`; must be ≥ 1. Values
    /// slightly above 1 keep self-loop probability on the fastest states,
    /// damping periodicity.
    pub uniformisation_factor: f64,
    /// Consecutive-iterate sup-norm threshold for steady-state detection;
    /// set to 0 to disable.
    pub steady_state_tolerance: f64,
    /// Worker threads for the sparse matrix–vector products. The workers
    /// are spawned once per solve (persistent pool), not per product;
    /// `<= 1` keeps everything on the calling thread.
    pub threads: usize,
    /// Storage format selection for the iteration matrix.
    pub representation: Representation,
    /// Restrict each product to the live support interval of the iterate
    /// (banded representation only; ignored for CSR). Costs half the ε
    /// budget, saves the untouched bulk of the state space.
    pub active_window: bool,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            epsilon: 1e-10,
            uniformisation_factor: 1.02,
            steady_state_tolerance: 1e-14,
            threads: 1,
            representation: Representation::Auto,
            active_window: true,
        }
    }
}

/// Result of [`transient_distribution_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSolution {
    /// `π(t)`, the state distribution at the requested time.
    pub distribution: Vec<f64>,
    /// Number of matrix–vector products performed.
    pub iterations: usize,
    /// The uniformisation rate ν that was used.
    pub nu: f64,
    /// Matrix slots touched across all products (the work metric the
    /// active window shrinks).
    pub touched_entries: u64,
    /// Probability mass trimmed at the window edges (0 without the
    /// active window); bounded by half of `epsilon`.
    pub window_deficit: f64,
}

/// A computed curve `t ↦ m·π(t)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveSolution {
    /// `(t, value)` pairs in the caller's requested order.
    pub points: Vec<(f64, f64)>,
    /// Number of matrix–vector products performed (the paper's
    /// "iterations").
    pub iterations: usize,
    /// Iteration at which the iterate sequence was detected stationary,
    /// when steady-state detection fired.
    pub converged_at: Option<usize>,
    /// The uniformisation rate ν.
    pub nu: f64,
    /// Matrix slots touched across all products (the work metric the
    /// active window shrinks).
    pub touched_entries: u64,
    /// Probability mass trimmed at the window edges (0 without the
    /// active window); bounded so the curve error stays within ε.
    pub window_deficit: f64,
}

/// Computes `π(t)` from initial distribution `alpha` with default options.
///
/// # Errors
///
/// Propagates validation errors for `alpha`, negative `t`, or Fox–Glynn
/// failures.
pub fn transient_distribution(
    ctmc: &Ctmc,
    alpha: &[f64],
    t: f64,
    epsilon: f64,
) -> Result<TransientSolution, MarkovError> {
    let opts = TransientOptions {
        epsilon,
        ..Default::default()
    };
    transient_distribution_with(ctmc, alpha, t, &opts)
}

/// Builds the iteration matrix `Pᵀ` in the representation the options
/// ask for.
fn build_transposed(
    ctmc: &Ctmc,
    opts: &TransientOptions,
) -> Result<(TransitionMatrix, f64), MarkovError> {
    match opts.representation {
        Representation::Auto => ctmc.uniformised_transposed_auto(opts.uniformisation_factor),
        Representation::Csr => {
            let (pt, nu) = ctmc.uniformised_transposed(opts.uniformisation_factor)?;
            Ok((TransitionMatrix::Csr(pt), nu))
        }
        Representation::Banded => {
            let (pt, nu) = ctmc.uniformised_transposed_banded(opts.uniformisation_factor)?;
            Ok((TransitionMatrix::Banded(pt), nu))
        }
    }
}

/// How the ε budget is split: the Fox–Glynn share and the total mass the
/// window trimming may discard. Without an active window the Poisson
/// tails keep the whole budget, exactly as before.
fn split_epsilon(epsilon: f64, windowed: bool) -> (f64, f64) {
    if windowed {
        (epsilon / 2.0, epsilon / 2.0)
    } else {
        (epsilon, 0.0)
    }
}

/// Offset `n₀` of the active window's trim schedule: the allowances
/// fall off like `1/(n + n₀)²`, so half of the trim budget is on offer
/// over the first `n₀` products and the rest stays available to long
/// sweeps (Poisson right points here run from about 10³ to 4·10⁴).
const TRIM_SCHEDULE_OFFSET: f64 = 4096.0;

/// The active window's trim allowance for the trim after product `n`
/// (`n ≥ 1`): `trim_budget · n₀ / ((n + n₀ − 1)(n + n₀))`. The
/// allowances telescope, so the first `N` of them sum to
/// `trim_budget · N / (N + n₀)` and the window never spends more than
/// its share of ε, however long the sweep runs. The schedule depends on
/// the iteration alone, never on the Poisson horizon: a sweep stopped at
/// any `n` is the exact prefix of a longer one, which is what lets
/// [`CurveCache`] extend windowed sweeps across a rate-rescale family.
fn trim_allowance(trim_budget: f64, n: usize) -> f64 {
    let k = n as f64 + TRIM_SCHEDULE_OFFSET;
    trim_budget * TRIM_SCHEDULE_OFFSET / ((k - 1.0) * k)
}

/// Computes `π(t)` with explicit [`TransientOptions`].
///
/// # Errors
///
/// [`MarkovError::InvalidDistribution`] for a bad `alpha`;
/// [`MarkovError::InvalidArgument`] for negative/non-finite `t`.
pub fn transient_distribution_with(
    ctmc: &Ctmc,
    alpha: &[f64],
    t: f64,
    opts: &TransientOptions,
) -> Result<TransientSolution, MarkovError> {
    transient_distribution_budgeted(ctmc, alpha, t, opts, &Budget::unlimited())
}

/// [`transient_distribution_with`] under a cooperative [`Budget`]: the
/// token is checked once per matrix–vector product, and an exhausted
/// budget aborts the sweep with [`MarkovError::DeadlineExceeded`]
/// carrying the iterations completed. With [`Budget::unlimited`] the
/// check is a single branch and the solve is identical to the
/// unbudgeted entry point, bit for bit.
///
/// # Errors
///
/// As for [`transient_distribution_with`], plus
/// [`MarkovError::DeadlineExceeded`] when the budget expires.
pub fn transient_distribution_budgeted(
    ctmc: &Ctmc,
    alpha: &[f64],
    t: f64,
    opts: &TransientOptions,
    budget: &Budget,
) -> Result<TransientSolution, MarkovError> {
    ctmc.check_distribution(alpha)?;
    if !t.is_finite() || t < 0.0 {
        return Err(MarkovError::InvalidArgument(format!(
            "time must be finite and non-negative, got {t}"
        )));
    }
    // Pᵀ straight from the generator: banded for lattice chains, CSR
    // otherwise — never a P temporary, never a transpose copy.
    let (pt, nu) = build_transposed(ctmc, opts)?;
    if nu == 0.0 || t == 0.0 {
        return Ok(TransientSolution {
            distribution: alpha.to_vec(),
            iterations: 0,
            nu,
            touched_entries: 0,
            window_deficit: 0.0,
        });
    }
    let windowed = opts.active_window && pt.as_banded().is_some();
    let (fg_epsilon, trim_budget) = split_epsilon(opts.epsilon, windowed);
    let mut fg = FoxGlynnCache::new();
    fg.compute(nu * t, fg_epsilon)?;

    // One pool for the whole solve: workers spawn here, are fed one
    // row block per iteration, and exit on drop.
    let pool = SpmvPool::new(effective_threads(opts.threads, pt.rows()));

    let n_states = ctmc.n_states();
    let mut v = alpha.to_vec();
    let mut next = vec![0.0; n_states];
    let mut out = vec![0.0; n_states];
    let mut iterations = 0;
    let mut touched: u64 = 0;
    let mut deficit = 0.0;
    if fg.left() == 0 {
        accumulate(&mut out, &v, fg.weight(0), &(0..n_states));
    }
    if let Some(band) = if windowed { pt.as_banded() } else { None } {
        // Active-window sweep: restrict every product to the live rows.
        let mut v_win = support_range(&v);
        let mut next_win = 0..0;
        for n in 1..=fg.right() {
            budget.check(iterations)?;
            let grown = band.grow_window(&v_win);
            zero_outside(&mut next, &next_win, &grown);
            let sup = pool.mul_vec_sup_window(band, &v, &mut next, grown.clone())?;
            touched += band.entries_in(&grown) as u64;
            std::mem::swap(&mut v, &mut next);
            next_win = std::mem::replace(&mut v_win, grown);
            iterations += 1;
            let wn = fg.weight(n);
            if wn > 0.0 {
                accumulate(&mut out, &v, wn, &v_win);
            }
            if opts.steady_state_tolerance > 0.0 && sup < opts.steady_state_tolerance {
                let remaining: f64 = (n + 1..=fg.right()).map(|m| fg.weight(m)).sum();
                accumulate(&mut out, &v, remaining, &v_win);
                break;
            }
            deficit += trim_window(&mut v, &mut v_win, trim_allowance(trim_budget, n));
        }
    } else {
        let partition = pt.as_ref().partition(pool.threads());
        let per_product = pt.entries_per_product() as u64;
        for n in 1..=fg.right() {
            budget.check(iterations)?;
            // Fused product + steady-state sup-norm: no separate O(n)
            // convergence sweep over the iterate.
            let sup = pool.mul_vec_sup(&pt, &partition, &v, &mut next)?;
            touched += per_product;
            std::mem::swap(&mut v, &mut next);
            iterations += 1;
            let wn = fg.weight(n);
            if wn > 0.0 {
                accumulate(&mut out, &v, wn, &(0..n_states));
            }
            if opts.steady_state_tolerance > 0.0 && sup < opts.steady_state_tolerance {
                // Iterates are stationary: the remaining Poisson mass
                // applies to the converged vector.
                let remaining: f64 = (n + 1..=fg.right()).map(|m| fg.weight(m)).sum();
                accumulate(&mut out, &v, remaining, &(0..n_states));
                break;
            }
        }
    }
    Ok(TransientSolution {
        distribution: out,
        iterations,
        nu,
        touched_entries: touched,
        window_deficit: deficit,
    })
}

/// Computes the curve `t ↦ Σ_i measure[i]·π_i(t)` over all `times` with a
/// single sweep of matrix–vector products.
///
/// `measure` is any linear functional on the state space: the indicator of
/// the battery-empty states yields `Pr[battery empty at t]`, a reward
/// vector yields expected instantaneous reward, etc.
///
/// The requested times may be unsorted and may repeat; they are visited
/// in sorted order internally (one Fox–Glynn window per **distinct**
/// time, duplicates reuse the previous mix) and reported back in the
/// caller's order.
///
/// # Errors
///
/// [`MarkovError::InvalidDistribution`] for a bad `alpha`;
/// [`MarkovError::InvalidArgument`] for an empty/mismatched `measure` or
/// negative times.
pub fn measure_curve(
    ctmc: &Ctmc,
    alpha: &[f64],
    times: &[f64],
    measure: &[f64],
    opts: &TransientOptions,
) -> Result<CurveSolution, MarkovError> {
    measure_curve_cached(ctmc, alpha, times, measure, opts, &mut CurveCache::new())
}

/// Cross-solve cache for [`measure_curve_cached`]: what a sweep-plan
/// group shares between structurally identical solves.
///
/// Three layers, reused under progressively stronger conditions:
///
/// 1. **Workspaces** — the Fox–Glynn buffers and the SpMV worker pool
///    survive across solves whenever the state-space size and thread
///    budget match (always true within a plan group), so a group spawns
///    its workers once, not once per member.
/// 2. **The pattern** — when the cached iteration matrix is banded, its
///    diagonal offsets seed
///    [`BandedMatrix::transposed_scaled_add_diag_with_offsets`](crate::banded::BandedMatrix::transposed_scaled_add_diag_with_offsets),
///    so later members emit `Pᵀ` without re-detecting the lattice
///    structure.
/// 3. **The iterate scalars** `s_n = m·(αPⁿ)` — the expensive part, and
///    reused only when bitwise identity with an independent solve is
///    provable: the member's `Pᵀ` must equal the cached one bit for bit
///    (true across rate-rescaled scenario families, `Q' = γQ` with `γ` a
///    power of two, since `P = I + Q/ν` is then unchanged), and `α`, the
///    measure and the [`TransientOptions`] must match. ν and the horizon
///    may differ: the iterates never depend on them, for the
///    active-window engine too, because its trim allowance follows a
///    horizon-free schedule. A member needing a larger Poisson right
///    point **extends** the cached sweep from the stored last iterate
///    and its active window instead of restarting it, so a whole rescale
///    family costs one sweep to the family's largest `ν·t` plus a
///    Poisson remix per member, in either storage format.
///
/// Reused members report only the matrix products *this call* performed
/// in `iterations`/`touched_entries` (zero for a pure remix) and inherit
/// the cached sweep's `window_deficit`, which bounds their own trimmed
/// mass from above (the sweep trims a superset of their iterations).
#[derive(Debug, Default)]
pub struct CurveCache {
    state: Option<CacheState>,
    fg: FoxGlynnCache,
    pool: Option<SpmvPool>,
    last_shared: bool,
}

/// The cached sweep itself (everything keyed by the reuse conditions).
#[derive(Debug)]
struct CacheState {
    opts: TransientOptions,
    /// Structural fingerprint of the source chain `pt` was built from —
    /// the key gating offset reuse across cache entries.
    source_fp: u64,
    pt: TransitionMatrix,
    alpha: Vec<f64>,
    measure: Vec<f64>,
    /// `s[n] = measure · (alpha Pⁿ)` for `n = 0..=iterations`.
    s: Vec<f64>,
    /// The iterate `alpha P^{iterations}`, kept so a later member with a
    /// larger right truncation point can continue the sweep.
    v: Vec<f64>,
    /// The active window of `v` (`v` is exactly zero outside it); the
    /// whole state space when the engine runs without a window.
    v_win: Range<usize>,
    converged_at: Option<usize>,
    window_deficit: f64,
}

impl CacheState {
    /// A sweep at `n = 0`: just `α` and its measure.
    fn start(
        opts: TransientOptions,
        source_fp: u64,
        pt: TransitionMatrix,
        alpha: &[f64],
        measure: &[f64],
    ) -> CacheState {
        let windowed = opts.active_window && pt.as_banded().is_some();
        let v_win = if windowed {
            support_range(alpha)
        } else {
            0..alpha.len()
        };
        CacheState {
            opts,
            source_fp,
            pt,
            alpha: alpha.to_vec(),
            measure: measure.to_vec(),
            s: vec![dot(alpha, measure)],
            v: alpha.to_vec(),
            v_win,
            converged_at: None,
            window_deficit: 0.0,
        }
    }

    /// Continues the sweep until `s` covers `0..=n_max` or the iterates
    /// converge, adding the products performed to `iterations` and
    /// `touched`. Fresh sweeps and extensions both run this loop, so an
    /// extended sweep holds exactly the iterates a single longer sweep
    /// computes. Every iteration commits whole before the next budget
    /// check: a cancelled call leaves a consistent, shorter sweep.
    fn advance(
        &mut self,
        pool: &SpmvPool,
        n_max: usize,
        trim_budget: f64,
        budget: &Budget,
        iterations: &mut usize,
        touched: &mut u64,
    ) -> Result<(), MarkovError> {
        if self.converged_at.is_some() || self.s.len() > n_max {
            return Ok(());
        }
        self.s.reserve(n_max + 1 - self.s.len());
        let band = if self.opts.active_window {
            self.pt.as_banded()
        } else {
            None
        };
        let partition = match band {
            Some(_) => Vec::new(),
            None => self.pt.as_ref().partition(pool.threads()),
        };
        let per_product = self.pt.entries_per_product() as u64;
        let tolerance = self.opts.steady_state_tolerance;
        // Both buffers stay exactly zero outside their windows, so the
        // windowed dot and sup-norm equal their full-space values.
        let mut next = vec![0.0; self.v.len()];
        let mut next_win = 0..0;
        for n in self.s.len()..=n_max {
            budget.check(*iterations)?;
            // One fully fused pass: v_{n+1} = Pᵀ·v_n, s_{n+1} =
            // measure·v_{n+1} and the steady-state sup-norm
            // |v_{n+1} − v_n|_∞, with no separate dot or convergence
            // sweep over the iterate.
            let (s_n, sup) = match band {
                Some(band) => {
                    let grown = band.grow_window(&self.v_win);
                    zero_outside(&mut next, &next_win, &grown);
                    let fused = pool.mul_vec_dot_sup_window(
                        band,
                        &self.v,
                        &mut next,
                        &self.measure,
                        grown.clone(),
                    )?;
                    *touched += band.entries_in(&grown) as u64;
                    next_win = std::mem::replace(&mut self.v_win, grown);
                    fused
                }
                None => {
                    let fused = pool.mul_vec_dot_sup(
                        &self.pt,
                        &partition,
                        &self.v,
                        &mut next,
                        &self.measure,
                    )?;
                    *touched += per_product;
                    fused
                }
            };
            std::mem::swap(&mut self.v, &mut next);
            *iterations += 1;
            self.s.push(s_n);
            if tolerance > 0.0 && sup < tolerance {
                self.converged_at = Some(n);
                break;
            }
            if band.is_some() {
                self.window_deficit +=
                    trim_window(&mut self.v, &mut self.v_win, trim_allowance(trim_budget, n));
            }
        }
        Ok(())
    }
}

impl CurveCache {
    /// An empty cache; everything is built on the first solve.
    pub fn new() -> Self {
        CurveCache::default()
    }

    /// Whether the last [`measure_curve_cached`] call reused the cached
    /// iterate scalars (possibly extending them) instead of running its
    /// own sweep from scratch — the sweep planner's fast-path telemetry.
    pub fn last_solve_shared(&self) -> bool {
        self.last_shared
    }

    /// Approximate heap footprint of the cached sweep in bytes: the
    /// iterate scalars `s`, the stored last iterate, the `α`/measure
    /// copies and the cached `Pᵀ` values. Workspaces whose size is
    /// bounded by the chain (the Fox–Glynn buffers, the worker pool) are
    /// not charged. This is what a resident holder's warm-state budget
    /// accounts for a cache that outlives one plan group.
    pub fn approx_bytes(&self) -> usize {
        let f64s = std::mem::size_of::<f64>();
        self.state.as_ref().map_or(0, |st| {
            (st.s.len() + st.v.len() + st.alpha.len() + st.measure.len()) * f64s
                + st.pt.entries_per_product() * f64s
        })
    }

    /// Drops the cached sweep while keeping the reusable workspaces (the
    /// Fox–Glynn buffers and the SpMV worker pool), so a long-lived
    /// cache can shed its O(iterations) memory without paying the
    /// worker-respawn cost on the next solve. A cleared cache behaves
    /// exactly like a fresh one: [`measure_curve_cached`] rebuilds the
    /// sweep on the next call, bit-identically.
    pub fn clear(&mut self) {
        self.state = None;
        self.last_shared = false;
    }
}

// A `CurveCache` moves between request threads when it is held as
// resident warm state (`kibamrm::service`); everything inside — the
// cached sweep, the Fox–Glynn workspace, the SpMV pool's channel
// endpoints and join handles — is `Send`, and this assertion keeps it
// that way.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<CurveCache>();
};

/// Builds the member's `Pᵀ`, seeding banded construction with the cached
/// offsets when the cache was built under the same options **for the
/// same chain structure** (`Ctmc::structural_fingerprint` equality — a
/// chain with a different pattern could scatter onto a superset of the
/// cached offsets and end up on a different representation/window
/// schedule than an independent `Auto` probe would pick); falls back to
/// the generic path on any mismatch.
fn build_transposed_cached(
    ctmc: &Ctmc,
    member_fp: u64,
    opts: &TransientOptions,
    cache: &CurveCache,
) -> Result<(TransitionMatrix, f64), MarkovError> {
    if let Some(state) = &cache.state {
        if state.opts == *opts
            && state.source_fp == member_fp
            && opts.representation != Representation::Csr
        {
            if let TransitionMatrix::Banded(band) = &state.pt {
                if let Ok((m, nu)) = ctmc.uniformised_transposed_banded_with_offsets(
                    opts.uniformisation_factor,
                    band.offsets(),
                ) {
                    if nu > 0.0 {
                        return Ok((TransitionMatrix::Banded(m), nu));
                    }
                }
            }
        }
    }
    build_transposed(ctmc, opts)
}

/// [`measure_curve`] with an explicit cross-solve [`CurveCache`] — the
/// engine entry point of the sweep planner. Results are **bit-identical**
/// to [`measure_curve`] on the same inputs: the cache only short-circuits
/// work whose outcome is provably the same bits (see [`CurveCache`]).
///
/// # Errors
///
/// As for [`measure_curve`].
pub fn measure_curve_cached(
    ctmc: &Ctmc,
    alpha: &[f64],
    times: &[f64],
    measure: &[f64],
    opts: &TransientOptions,
    cache: &mut CurveCache,
) -> Result<CurveSolution, MarkovError> {
    measure_curve_budgeted(
        ctmc,
        alpha,
        times,
        measure,
        opts,
        cache,
        &Budget::unlimited(),
    )
}

/// [`measure_curve_cached`] under a cooperative [`Budget`], checked once
/// per matrix–vector product (fresh sweeps and cache extensions alike).
///
/// A budget-aborted sweep leaves the cache exactly as consistent as a
/// shorter completed solve would: a fresh sweep commits nothing, and an
/// extension keeps only fully computed iterates — so re-running the
/// same solve with an unlimited budget is **bit-identical** to never
/// having been cancelled. With [`Budget::unlimited`] the check is a
/// single branch and the solve is identical to
/// [`measure_curve_cached`].
///
/// # Errors
///
/// As for [`measure_curve`], plus [`MarkovError::DeadlineExceeded`]
/// (carrying the products performed this call) when the budget expires.
pub fn measure_curve_budgeted(
    ctmc: &Ctmc,
    alpha: &[f64],
    times: &[f64],
    measure: &[f64],
    opts: &TransientOptions,
    cache: &mut CurveCache,
    budget: &Budget,
) -> Result<CurveSolution, MarkovError> {
    ctmc.check_distribution(alpha)?;
    if measure.len() != ctmc.n_states() {
        return Err(MarkovError::InvalidArgument(format!(
            "measure has {} entries but chain has {} states",
            measure.len(),
            ctmc.n_states()
        )));
    }
    if times.is_empty() {
        return Err(MarkovError::InvalidArgument(
            "no time points requested".into(),
        ));
    }
    if times.iter().any(|&t| !t.is_finite() || t < 0.0) {
        return Err(MarkovError::InvalidArgument(
            "times must be finite and ≥ 0".into(),
        ));
    }
    cache.last_shared = false;

    // Pᵀ straight from the generator: banded for lattice chains, CSR
    // otherwise — never a P temporary, never a transpose copy. Within a
    // plan group the cached offsets skip structure detection.
    let member_fp = ctmc.structural_fingerprint();
    let (pt, nu) = build_transposed_cached(ctmc, member_fp, opts, cache)?;
    let t_max = times.iter().cloned().fold(0.0, f64::max);
    if nu == 0.0 || t_max == 0.0 {
        let value = dot(alpha, measure);
        return Ok(CurveSolution {
            points: times.iter().map(|&t| (t, value)).collect(),
            iterations: 0,
            converged_at: None,
            nu,
            touched_entries: 0,
            window_deficit: 0.0,
        });
    }
    let windowed = opts.active_window && pt.as_banded().is_some();
    // The trimmed window mass propagates into the curve through the
    // measure, so its budget is scaled by ‖measure‖_∞: total curve error
    // stays ≤ fg share + trim share ≤ ε even for reward-valued measures.
    let m_inf = measure.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    let (fg_epsilon, trim_mass) = split_epsilon(opts.epsilon, windowed);
    let trim_budget = trim_mass / m_inf.max(1.0);
    // One Fox–Glynn workspace serves every window: sized once at
    // λ_max = ν·t_max (whose right point bounds all smaller windows),
    // then re-filled per distinct time point with no further allocation.
    cache.fg.compute(nu * t_max, fg_epsilon)?;
    let n_max = cache.fg.right();

    // One pool per group: workers spawn on the first member — not once
    // per product, not once per member — and each owns a row block.
    let threads = effective_threads(opts.threads, pt.rows());
    if cache
        .pool
        .as_ref()
        .is_none_or(|p| p.threads() != SpmvPool::clamped_threads(threads))
    {
        cache.pool = Some(SpmvPool::new(threads));
    }
    let pool = cache.pool.as_ref().expect("pool just ensured");

    // Can the cached sweep stand in for this member's? Only when the
    // iterates are provably the same bits an independent solve would
    // produce: identical P (bitwise), α, measure and options. The
    // horizon never enters the iterates (see `trim_allowance`), so a
    // member with a larger ν·t extends the cached sweep and a smaller
    // one remixes it.
    let reusable = cache.state.as_ref().is_some_and(|st| {
        st.opts == *opts && st.pt == pt && st.alpha == alpha && st.measure == measure
    });

    let mut iterations = 0;
    let mut touched: u64 = 0;
    if reusable {
        cache.last_shared = true;
        let state = cache.state.as_mut().expect("reusable implies cached");
        state.advance(
            pool,
            n_max,
            trim_budget,
            budget,
            &mut iterations,
            &mut touched,
        )?;
    } else {
        // A fresh sweep is committed only once complete: a cancelled one
        // leaves the cache as it was.
        let mut state = CacheState::start(*opts, member_fp, pt, alpha, measure);
        state.advance(
            pool,
            n_max,
            trim_budget,
            budget,
            &mut iterations,
            &mut touched,
        )?;
        cache.state = Some(state);
    }
    let state = cache.state.as_ref().expect("sweep just ran or was reused");
    let points = remix_curve(times, nu, &state.s, &mut cache.fg, fg_epsilon)?;
    Ok(CurveSolution {
        points,
        iterations,
        converged_at: state.converged_at,
        nu,
        touched_entries: touched,
        window_deficit: state.window_deficit,
    })
}

/// Mixes the cached iterate scalars `s[n] = m·(αPⁿ)` into curve values:
/// each time point gets its own Poisson window over the shared scalars.
/// Times are visited in sorted order so equal (duplicate) time points
/// share one window computation, and the result vector is filled back in
/// the caller's original order. Iterate indices past the end of `s`
/// reuse the last scalar (the sweep stopped there because the iterates
/// had converged).
fn remix_curve(
    times: &[f64],
    nu: f64,
    s: &[f64],
    fg: &mut FoxGlynnCache,
    fg_epsilon: f64,
) -> Result<Vec<(f64, f64)>, MarkovError> {
    let s_last = *s.last().expect("at least one cached value");
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_by(|&a, &b| times[a].partial_cmp(&times[b]).expect("validated finite"));
    let mut points = vec![(0.0, 0.0); times.len()];
    let mut prev: Option<(f64, f64)> = None;
    for &idx in &order {
        let t = times[idx];
        let value = match prev {
            Some((pt_t, pt_v)) if pt_t == t => pt_v,
            _ => {
                if t == 0.0 {
                    s[0]
                } else {
                    fg.compute(nu * t, fg_epsilon)?;
                    let mut value = 0.0;
                    for (i, &wi) in fg.weights().iter().enumerate() {
                        let n = fg.left() + i;
                        value += wi * s.get(n).copied().unwrap_or(s_last);
                    }
                    value
                }
            }
        };
        points[idx] = (t, value);
        prev = Some((t, value));
    }
    Ok(points)
}

/// Caps the worker count at something useful for the matrix: tiny chains
/// never leave the calling thread (pool setup would dominate), matching
/// the old spawn-path threshold.
fn effective_threads(threads: usize, rows: usize) -> usize {
    if rows < crate::sparse::PARALLEL_SPMV_MIN_ROWS {
        1
    } else {
        threads
    }
}

/// The contiguous hull of the non-zero entries (`0..0` when all zero).
fn support_range(v: &[f64]) -> Range<usize> {
    let first = v.iter().position(|&x| x != 0.0);
    match first {
        None => 0..0,
        Some(lo) => {
            let hi = v.iter().rposition(|&x| x != 0.0).expect("some non-zero");
            lo..hi + 1
        }
    }
}

/// Zeros the part of `buf`'s stale window that the upcoming product will
/// not overwrite, maintaining the invariant that every buffer is exactly
/// zero outside its tracked window.
fn zero_outside(buf: &mut [f64], stale: &Range<usize>, keep: &Range<usize>) {
    let left = stale.start..stale.end.min(keep.start);
    if left.start < left.end {
        buf[left].fill(0.0);
    }
    let right = stale.start.max(keep.end)..stale.end;
    if right.start < right.end {
        buf[right].fill(0.0);
    }
}

/// Trims near-zero mass off both edges of the window, spending at most
/// `allowance` of (absolute) mass, zeroing what it removes. Returns the
/// mass actually trimmed — the caller's deficit accounting.
fn trim_window(v: &mut [f64], window: &mut Range<usize>, allowance: f64) -> f64 {
    if allowance <= 0.0 {
        return 0.0;
    }
    let mut spent = 0.0;
    while window.start < window.end {
        let x = v[window.start].abs();
        if spent + x > allowance {
            break;
        }
        spent += x;
        v[window.start] = 0.0;
        window.start += 1;
    }
    while window.end > window.start {
        let x = v[window.end - 1].abs();
        if spent + x > allowance {
            break;
        }
        spent += x;
        v[window.end - 1] = 0.0;
        window.end -= 1;
    }
    spent
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn accumulate(out: &mut [f64], v: &[f64], w: f64, window: &Range<usize>) {
    for (o, &x) in out[window.clone()].iter_mut().zip(&v[window.clone()]) {
        *o += w * x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;

    /// Two-state chain with closed-form transient solution.
    fn two_state(a: f64, b: f64) -> Ctmc {
        let mut builder = CtmcBuilder::new(2);
        builder.rate(0, 1, a).unwrap();
        builder.rate(1, 0, b).unwrap();
        builder.build().unwrap()
    }

    fn closed_form_p00(a: f64, b: f64, t: f64) -> f64 {
        (b + a * (-(a + b) * t).exp()) / (a + b)
    }

    #[test]
    fn matches_two_state_closed_form() {
        let (a, b) = (2.0, 3.0);
        let chain = two_state(a, b);
        for &t in &[0.0, 0.1, 0.5, 1.0, 5.0] {
            let sol = transient_distribution(&chain, &[1.0, 0.0], t, 1e-13).unwrap();
            let expect = closed_form_p00(a, b, t);
            assert!(
                (sol.distribution[0] - expect).abs() < 1e-10,
                "t = {t}: {} vs {expect}",
                sol.distribution[0]
            );
            let total: f64 = sol.distribution.iter().sum();
            assert!((total - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn matches_dense_matrix_exponential() {
        // 4-state random-ish generator vs e^{Qt}.
        let mut b = CtmcBuilder::new(4);
        let rates = [
            (0, 1, 1.2),
            (0, 3, 0.4),
            (1, 2, 2.3),
            (1, 0, 0.3),
            (2, 3, 1.7),
            (2, 1, 0.5),
            (3, 0, 0.9),
        ];
        for (f, t, r) in rates {
            b.rate(f, t, r).unwrap();
        }
        let chain = b.build().unwrap();
        let t = 0.8;
        let expm = chain.generator_dense().scale(t).expm().unwrap();
        let alpha = [0.25, 0.25, 0.25, 0.25];
        let sol = transient_distribution(&chain, &alpha, t, 1e-13).unwrap();
        let expect = expm.vecmul(&alpha).unwrap();
        for i in 0..4 {
            assert!((sol.distribution[i] - expect[i]).abs() < 1e-9, "state {i}");
        }
    }

    #[test]
    fn absorbing_chain_accumulates_mass() {
        // 0 → 1 (absorbing) at rate 1: π₁(t) = 1 − e^{-t}.
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 1.0).unwrap();
        let chain = b.build().unwrap();
        for &t in &[0.5, 1.0, 3.0, 10.0] {
            let sol = transient_distribution(&chain, &[1.0, 0.0], t, 1e-13).unwrap();
            assert!((sol.distribution[1] - (1.0 - (-t).exp())).abs() < 1e-10);
        }
    }

    #[test]
    fn all_absorbing_chain_is_constant() {
        let chain = CtmcBuilder::new(3).build().unwrap();
        let sol = transient_distribution(&chain, &[0.2, 0.3, 0.5], 7.0, 1e-12).unwrap();
        assert_eq!(sol.distribution, vec![0.2, 0.3, 0.5]);
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.nu, 0.0);
        assert_eq!(sol.touched_entries, 0);
    }

    #[test]
    fn zero_time_returns_alpha() {
        let chain = two_state(1.0, 1.0);
        let sol = transient_distribution(&chain, &[0.4, 0.6], 0.0, 1e-12).unwrap();
        assert_eq!(sol.distribution, vec![0.4, 0.6]);
    }

    #[test]
    fn input_validation() {
        let chain = two_state(1.0, 1.0);
        assert!(transient_distribution(&chain, &[0.4, 0.4], 1.0, 1e-12).is_err());
        assert!(transient_distribution(&chain, &[1.0, 0.0], -1.0, 1e-12).is_err());
        assert!(transient_distribution(&chain, &[1.0, 0.0], f64::NAN, 1e-12).is_err());
    }

    #[test]
    fn curve_matches_pointwise_solutions() {
        let chain = two_state(2.0, 3.0);
        let times = [0.0, 0.2, 0.5, 1.3, 4.0];
        let measure = [1.0, 0.0]; // Pr[in state 0]
        let curve = measure_curve(
            &chain,
            &[1.0, 0.0],
            &times,
            &measure,
            &TransientOptions::default(),
        )
        .unwrap();
        for (t, value) in &curve.points {
            let expect = closed_form_p00(2.0, 3.0, *t);
            assert!(
                (value - expect).abs() < 1e-9,
                "t = {t}: {value} vs {expect}"
            );
        }
        // One sweep serves all points: iterations bounded by the largest t.
        let single = transient_distribution(&chain, &[1.0, 0.0], 4.0, 1e-10).unwrap();
        assert!(curve.iterations <= single.iterations + 5);
    }

    #[test]
    fn curve_validation_errors() {
        let chain = two_state(1.0, 1.0);
        let opts = TransientOptions::default();
        assert!(measure_curve(&chain, &[1.0, 0.0], &[], &[1.0, 0.0], &opts).is_err());
        assert!(measure_curve(&chain, &[1.0, 0.0], &[1.0], &[1.0], &opts).is_err());
        assert!(measure_curve(&chain, &[1.0, 0.0], &[-1.0], &[1.0, 0.0], &opts).is_err());
        assert!(measure_curve(&chain, &[0.9, 0.0], &[1.0], &[1.0, 0.0], &opts).is_err());
    }

    #[test]
    fn steady_state_detection_saves_iterations() {
        // Strongly absorbing chain: everything is absorbed long before
        // t = 1000, so the sweep should stop early.
        let mut b = CtmcBuilder::new(2);
        b.rate(0, 1, 5.0).unwrap();
        let chain = b.build().unwrap();
        let opts = TransientOptions {
            steady_state_tolerance: 1e-13,
            ..Default::default()
        };
        let curve = measure_curve(&chain, &[1.0, 0.0], &[1000.0], &[0.0, 1.0], &opts).unwrap();
        assert!(curve.converged_at.is_some());
        // νt ≈ 5100, but convergence must kick in within a few dozen steps.
        assert!(curve.iterations < 200, "iterations = {}", curve.iterations);
        assert!((curve.points[0].1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn curve_handles_unsorted_times() {
        let chain = two_state(2.0, 3.0);
        let times = [1.0, 0.1, 0.5];
        let curve = measure_curve(
            &chain,
            &[1.0, 0.0],
            &times,
            &[1.0, 0.0],
            &TransientOptions::default(),
        )
        .unwrap();
        assert_eq!(curve.points.len(), 3);
        for (i, (t, v)) in curve.points.iter().enumerate() {
            assert_eq!(*t, times[i]);
            assert!((v - closed_form_p00(2.0, 3.0, *t)).abs() < 1e-9);
        }
    }

    #[test]
    fn curve_handles_duplicate_times_without_recomputing() {
        // Duplicates (and a duplicated zero) are served from the
        // previous mix; the values must match the de-duplicated curve
        // exactly, in the caller's order.
        let chain = two_state(2.0, 3.0);
        let times = [0.5, 0.5, 0.0, 1.0, 0.0, 1.0, 0.5];
        let opts = TransientOptions::default();
        let curve = measure_curve(&chain, &[1.0, 0.0], &times, &[1.0, 0.0], &opts).unwrap();
        let reference = measure_curve(&chain, &[1.0, 0.0], &[0.0, 0.5, 1.0], &[1.0, 0.0], &opts)
            .unwrap()
            .points;
        let lookup = |t: f64| {
            reference
                .iter()
                .find(|&&(rt, _)| rt == t)
                .expect("reference covers t")
                .1
        };
        for (i, &(t, v)) in curve.points.iter().enumerate() {
            assert_eq!(t, times[i], "order preserved");
            assert_eq!(v, lookup(t), "duplicate t = {t} must reuse the mix");
        }
    }

    #[test]
    fn distribution_stays_stochastic_under_uniformisation_factor_one() {
        let chain = two_state(1.0, 1.0);
        let opts = TransientOptions {
            uniformisation_factor: 1.0,
            ..Default::default()
        };
        let sol = transient_distribution_with(&chain, &[1.0, 0.0], 2.5, &opts).unwrap();
        let total: f64 = sol.distribution.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
        assert!((sol.distribution[0] - closed_form_p00(1.0, 1.0, 2.5)).abs() < 1e-9);
    }

    /// A birth–death lattice chain with an absorbing floor — the 1-D
    /// archetype of the discretised battery chain.
    fn lattice_chain(n: usize, down: f64, up: f64) -> Ctmc {
        let mut b = CtmcBuilder::new(n);
        for i in 1..n {
            b.rate(i, i - 1, down).unwrap(); // consumption
            if i + 1 < n {
                b.rate(i, i + 1, up).unwrap(); // recovery
            }
        }
        b.build().unwrap()
    }

    fn point_mass(n: usize, at: usize) -> Vec<f64> {
        let mut alpha = vec![0.0; n];
        alpha[at] = 1.0;
        alpha
    }

    #[test]
    fn representations_agree_on_lattice_curves() {
        // The tentpole cross-check: CSR-full, banded-full and
        // banded-windowed engines produce the same curve within ε.
        let n = 400;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0; // Pr[absorbed]
        let times = [5.0, 40.0, 120.0, 300.0];
        let base = TransientOptions::default();
        let csr = measure_curve(
            &chain,
            &alpha,
            &times,
            &measure,
            &TransientOptions {
                representation: Representation::Csr,
                ..base
            },
        )
        .unwrap();
        let banded_full = measure_curve(
            &chain,
            &alpha,
            &times,
            &measure,
            &TransientOptions {
                representation: Representation::Banded,
                active_window: false,
                ..base
            },
        )
        .unwrap();
        let banded_window = measure_curve(
            &chain,
            &alpha,
            &times,
            &measure,
            &TransientOptions {
                representation: Representation::Banded,
                active_window: true,
                ..base
            },
        )
        .unwrap();
        for i in 0..times.len() {
            let a = csr.points[i].1;
            let b = banded_full.points[i].1;
            let c = banded_window.points[i].1;
            assert!((a - b).abs() < 1e-12, "full: {a} vs {b}");
            // Provable bound is 2ε (each engine within ε of truth).
            assert!((a - c).abs() < 2.0 * base.epsilon, "windowed: {a} vs {c}");
        }
        // The windowed engine must actually skip work on this chain
        // (early iterations touch a handful of rows, not all 400).
        assert!(
            banded_window.touched_entries < banded_full.touched_entries,
            "windowed {} vs full {}",
            banded_window.touched_entries,
            banded_full.touched_entries
        );
        assert!(banded_window.window_deficit <= base.epsilon / 2.0);
        assert_eq!(banded_full.window_deficit, 0.0);
        // Auto picks banded for this lattice.
        let auto = measure_curve(&chain, &alpha, &times, &measure, &base).unwrap();
        assert!(auto.touched_entries <= banded_full.touched_entries);
    }

    #[test]
    fn windowed_distribution_matches_csr_within_epsilon() {
        let n = 300;
        let chain = lattice_chain(n, 0.8, 0.4);
        let alpha = point_mass(n, n - 1);
        let t = 60.0;
        let eps = 1e-11;
        let csr = transient_distribution_with(
            &chain,
            &alpha,
            t,
            &TransientOptions {
                epsilon: eps,
                representation: Representation::Csr,
                ..Default::default()
            },
        )
        .unwrap();
        let windowed = transient_distribution_with(
            &chain,
            &alpha,
            t,
            &TransientOptions {
                epsilon: eps,
                representation: Representation::Banded,
                active_window: true,
                ..Default::default()
            },
        )
        .unwrap();
        let l1: f64 = csr
            .distribution
            .iter()
            .zip(&windowed.distribution)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(l1 < eps * 10.0, "L1 distance {l1}");
        assert!(windowed.window_deficit <= eps / 2.0);
        assert!(windowed.touched_entries < csr.touched_entries);
    }

    /// The chain scaled by `gamma` (a power of two keeps `P = I + Q/ν`
    /// bitwise identical, which is what the cache's rescale fast path
    /// detects).
    fn scaled_chain(chain: &Ctmc, gamma: f64) -> Ctmc {
        chain
            .with_rate_values(chain.rates().values().iter().map(|v| v * gamma).collect())
            .unwrap()
    }

    #[test]
    fn cached_remix_is_bit_identical_across_rescaled_chains() {
        let n = 200;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let times = [10.0, 60.0, 150.0];
        // Non-windowed engines: the iterate scalars are horizon-free, so
        // the whole rescale family shares one (extendable) sweep.
        for repr in [Representation::Csr, Representation::Banded] {
            let opts = TransientOptions {
                representation: repr,
                active_window: false,
                ..Default::default()
            };
            let mut cache = CurveCache::new();
            // Ascending ν: each member extends the previous sweep.
            for gamma in [0.25, 0.5, 1.0, 2.0] {
                let member = scaled_chain(&chain, gamma);
                let cached =
                    measure_curve_cached(&member, &alpha, &times, &measure, &opts, &mut cache)
                        .unwrap();
                let independent = measure_curve(&member, &alpha, &times, &measure, &opts).unwrap();
                assert_eq!(
                    cached.points, independent.points,
                    "γ = {gamma} ({repr:?}) must be bit-identical"
                );
                if gamma > 0.25 {
                    assert!(cache.last_solve_shared(), "γ = {gamma} should share");
                    // Extension only runs the *extra* iterations.
                    assert!(
                        cached.iterations < independent.iterations,
                        "γ = {gamma}: {} vs {}",
                        cached.iterations,
                        independent.iterations
                    );
                }
            }
            // Descending after the family maximum: pure remix, zero products.
            let half = scaled_chain(&chain, 0.5);
            let remixed =
                measure_curve_cached(&half, &alpha, &times, &measure, &opts, &mut cache).unwrap();
            assert_eq!(remixed.iterations, 0, "{repr:?}");
            assert_eq!(remixed.touched_entries, 0);
            assert_eq!(
                remixed.points,
                measure_curve(&half, &alpha, &times, &measure, &opts)
                    .unwrap()
                    .points
            );
        }
    }

    #[test]
    fn cached_windowed_engine_shares_rescaled_members() {
        let n = 200;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let times = [10.0, 60.0];
        let opts = windowed_opts();
        let mut cache = CurveCache::new();
        let first =
            measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        assert!(!cache.last_solve_shared());
        // An exact repeat reuses the whole sweep…
        let repeat =
            measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        assert!(cache.last_solve_shared());
        assert_eq!(repeat.iterations, 0);
        assert_eq!(repeat.points, first.points);
        assert_eq!(repeat.window_deficit, first.window_deficit);
        // …and so does a rescaled member: the trim schedule is
        // horizon-free, so extending the windowed sweep from its last
        // iterate and window is bit-identical to an independent solve.
        let double = scaled_chain(&chain, 2.0);
        let cached =
            measure_curve_cached(&double, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        assert!(cache.last_solve_shared());
        let independent = measure_curve(&double, &alpha, &times, &measure, &opts).unwrap();
        assert_eq!(cached.points, independent.points);
        assert_eq!(cached.window_deficit, independent.window_deficit);
        assert_eq!(
            first.iterations + cached.iterations,
            independent.iterations,
            "the extension runs only the products past the cached sweep"
        );
        assert_eq!(
            first.touched_entries + cached.touched_entries,
            independent.touched_entries
        );
    }

    #[test]
    fn cache_misses_on_changed_alpha_measure_or_options() {
        let n = 80;
        let chain = lattice_chain(n, 0.8, 0.2);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let times = [20.0];
        let opts = TransientOptions {
            representation: Representation::Csr,
            ..Default::default()
        };
        let mut cache = CurveCache::new();
        measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        // Different initial distribution: full solve, correct answer.
        let alpha2 = point_mass(n, n / 2);
        let fresh =
            measure_curve_cached(&chain, &alpha2, &times, &measure, &opts, &mut cache).unwrap();
        assert!(!cache.last_solve_shared());
        assert_eq!(
            fresh.points,
            measure_curve(&chain, &alpha2, &times, &measure, &opts)
                .unwrap()
                .points
        );
        // Different measure: miss again.
        let mut measure2 = vec![0.0; n];
        measure2[1] = 1.0;
        measure_curve_cached(&chain, &alpha2, &times, &measure2, &opts, &mut cache).unwrap();
        assert!(!cache.last_solve_shared());
        // Different ε: miss (the Fox–Glynn share changes the mix).
        let tighter = TransientOptions {
            epsilon: 1e-12,
            ..opts
        };
        let t =
            measure_curve_cached(&chain, &alpha2, &times, &measure2, &tighter, &mut cache).unwrap();
        assert!(!cache.last_solve_shared());
        assert_eq!(
            t.points,
            measure_curve(&chain, &alpha2, &times, &measure2, &tighter)
                .unwrap()
                .points
        );
    }

    #[test]
    fn cache_footprint_accounting_and_clear() {
        let n = 80;
        let chain = lattice_chain(n, 0.8, 0.2);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let times = [20.0];
        let opts = TransientOptions::default();
        let mut cache = CurveCache::new();
        assert_eq!(cache.approx_bytes(), 0, "empty cache charges nothing");
        let first =
            measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        let warm = cache.approx_bytes();
        // The sweep stores ≥ iterations+1 scalars plus two state-sized
        // iterates plus the matrix values.
        assert!(warm >= (first.iterations + 1 + 2 * n) * std::mem::size_of::<f64>());
        // clear() sheds the sweep but keeps the cache usable: the next
        // solve rebuilds from scratch, bit-identically.
        cache.clear();
        assert_eq!(cache.approx_bytes(), 0);
        assert!(!cache.last_solve_shared());
        let rebuilt =
            measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        assert!(!cache.last_solve_shared());
        assert_eq!(rebuilt.points, first.points);
        assert_eq!(rebuilt.iterations, first.iterations);
        // And an immediate repeat shares again.
        measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache).unwrap();
        assert!(cache.last_solve_shared());
    }

    #[test]
    fn budget_cancels_sweep_and_rerun_is_bit_identical() {
        // The tentpole cancellation contract: a solve cancelled at
        // iteration k reports k completed products, and re-running it
        // to completion — through the same cache — yields exactly the
        // bits an uninterrupted solve produces.
        let n = 120;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let times = [10.0, 40.0];
        for repr in [Representation::Csr, Representation::Banded] {
            let opts = TransientOptions {
                representation: repr,
                ..Default::default()
            };
            let uninterrupted = measure_curve(&chain, &alpha, &times, &measure, &opts).unwrap();
            assert!(uninterrupted.iterations > 8, "need room to cancel");
            for k in [0u64, 1, 5, 8] {
                let mut cache = CurveCache::new();
                let err = measure_curve_budgeted(
                    &chain,
                    &alpha,
                    &times,
                    &measure,
                    &opts,
                    &mut cache,
                    &Budget::cancelled_after_checks(k),
                )
                .unwrap_err();
                assert_eq!(
                    err,
                    MarkovError::DeadlineExceeded {
                        completed: k as usize
                    },
                    "{repr:?} k = {k}"
                );
                // A cancelled fresh sweep commits nothing; the re-run
                // behaves like a first solve and matches bit for bit.
                assert!(!cache.last_solve_shared());
                let rerun =
                    measure_curve_cached(&chain, &alpha, &times, &measure, &opts, &mut cache)
                        .unwrap();
                assert_eq!(rerun.points, uninterrupted.points, "{repr:?} k = {k}");
                assert_eq!(rerun.iterations, uninterrupted.iterations);
            }
        }
    }

    #[test]
    fn budget_cancels_cache_extension_and_rerun_completes() {
        // Cancel mid-*extension*: the cache keeps only fully computed
        // iterates, so finishing the extension later is bit-identical.
        let n = 120;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let opts = TransientOptions {
            representation: Representation::Csr,
            ..Default::default()
        };
        let mut cache = CurveCache::new();
        measure_curve_cached(&chain, &alpha, &[5.0], &measure, &opts, &mut cache).unwrap();
        // The doubled chain needs a larger Poisson window → extension.
        let double = scaled_chain(&chain, 2.0);
        let err = measure_curve_budgeted(
            &double,
            &alpha,
            &[5.0],
            &measure,
            &opts,
            &mut cache,
            &Budget::cancelled_after_checks(2),
        )
        .unwrap_err();
        assert_eq!(err, MarkovError::DeadlineExceeded { completed: 2 });
        let finished =
            measure_curve_cached(&double, &alpha, &[5.0], &measure, &opts, &mut cache).unwrap();
        let independent = measure_curve(&double, &alpha, &[5.0], &measure, &opts).unwrap();
        assert_eq!(finished.points, independent.points);
    }

    #[test]
    fn expired_budget_fails_before_any_product() {
        let n = 120;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let err = measure_curve_budgeted(
            &chain,
            &alpha,
            &[40.0],
            &measure,
            &TransientOptions::default(),
            &mut CurveCache::new(),
            &Budget::cancelled_after_checks(0),
        )
        .unwrap_err();
        assert_eq!(err, MarkovError::DeadlineExceeded { completed: 0 });
        let err = transient_distribution_budgeted(
            &chain,
            &alpha,
            40.0,
            &TransientOptions::default(),
            &Budget::cancelled_after_checks(0),
        )
        .unwrap_err();
        assert_eq!(err, MarkovError::DeadlineExceeded { completed: 0 });
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_unbudgeted() {
        // The zero-overhead claim's semantic half: the budgeted entry
        // point with an unlimited token is the same computation.
        let n = 120;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let opts = TransientOptions::default();
        let plain = measure_curve(&chain, &alpha, &[10.0, 40.0], &measure, &opts).unwrap();
        let budgeted = measure_curve_budgeted(
            &chain,
            &alpha,
            &[10.0, 40.0],
            &measure,
            &opts,
            &mut CurveCache::new(),
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(plain.points, budgeted.points);
        assert_eq!(plain.iterations, budgeted.iterations);
        assert_eq!(plain.touched_entries, budgeted.touched_entries);
    }

    /// Banded storage with the active window: the engine whose family
    /// sharing rests on the horizon-free trim schedule.
    fn windowed_opts() -> TransientOptions {
        TransientOptions {
            representation: Representation::Banded,
            active_window: true,
            ..Default::default()
        }
    }

    #[test]
    fn trim_schedule_partial_sums_never_exceed_the_budget() {
        let n_max = 1_000_000;
        for budget in [5e-11, 1.0, 3.7e-200] {
            let mut sum = 0.0;
            for n in 1..=n_max {
                sum += trim_allowance(budget, n);
                assert!(
                    sum <= budget,
                    "budget {budget:e}: partial sum {sum:e} at n = {n}"
                );
            }
            // The telescoped total `N / (N + n₀)` of the budget is on
            // offer, up to rounding.
            let total = n_max as f64 / (n_max as f64 + TRIM_SCHEDULE_OFFSET);
            assert!(
                (sum / budget - total).abs() < 1e-9,
                "budget {budget:e}: {sum:e}"
            );
        }
        assert_eq!(trim_allowance(0.0, 7), 0.0);
    }

    #[test]
    fn shared_windowed_family_reads_what_the_widest_solo_reads() {
        // A rate-rescale family (γ a power of two keeps Pᵀ bitwise
        // identical) through one cache: every member's curve equals its
        // independent solve bit for bit, and the family together reads
        // exactly the matrix slots of the widest member's solo sweep.
        let n = 300;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let times = [5.0, 40.0, 120.0, 300.0];
        let opts = windowed_opts();
        let mut cache = CurveCache::new();
        let (mut family_touched, mut widest) = (0u64, None);
        for gamma in [0.125, 0.25, 0.5, 1.0] {
            let member = scaled_chain(&chain, gamma);
            let shared =
                measure_curve_cached(&member, &alpha, &times, &measure, &opts, &mut cache).unwrap();
            let solo = measure_curve(&member, &alpha, &times, &measure, &opts).unwrap();
            assert_eq!(shared.points, solo.points, "γ = {gamma}");
            assert_eq!(shared.window_deficit, solo.window_deficit, "γ = {gamma}");
            assert!(shared.window_deficit <= opts.epsilon / 2.0);
            assert_eq!(cache.last_solve_shared(), gamma > 0.125);
            family_touched += shared.touched_entries;
            widest = Some(solo);
        }
        let widest = widest.expect("non-empty family");
        assert_eq!(family_touched, widest.touched_entries);
    }

    #[test]
    fn shared_windowed_sweep_handles_ragged_horizons_and_early_convergence() {
        // Ragged horizons both ways round: a small-γ member first is
        // extended for a larger one, a large-γ member first is remixed
        // for a smaller one. The long horizon reaches steady state well
        // before its Poisson right point, inside the shared sweep.
        let n = 200;
        let chain = lattice_chain(n, 2.0, 0.1);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let times = [3.0, 100.0, 400.0];
        let opts = windowed_opts();
        let small = scaled_chain(&chain, 1.0 / 64.0);
        let large = chain.clone();
        let solo_small = measure_curve(&small, &alpha, &times, &measure, &opts).unwrap();
        let solo_large = measure_curve(&large, &alpha, &times, &measure, &opts).unwrap();
        assert_eq!(solo_small.converged_at, None);
        assert!(solo_large.converged_at.is_some());
        assert!(solo_small.iterations < solo_large.iterations);

        let mut ascending = CurveCache::new();
        measure_curve_cached(&small, &alpha, &times, &measure, &opts, &mut ascending).unwrap();
        let extended =
            measure_curve_cached(&large, &alpha, &times, &measure, &opts, &mut ascending).unwrap();
        assert!(ascending.last_solve_shared());
        assert_eq!(extended.points, solo_large.points);
        assert_eq!(extended.converged_at, solo_large.converged_at);
        assert_eq!(
            solo_small.iterations + extended.iterations,
            solo_large.iterations
        );

        let mut descending = CurveCache::new();
        measure_curve_cached(&large, &alpha, &times, &measure, &opts, &mut descending).unwrap();
        let remixed =
            measure_curve_cached(&small, &alpha, &times, &measure, &opts, &mut descending).unwrap();
        assert!(descending.last_solve_shared());
        assert_eq!(remixed.iterations, 0);
        assert_eq!(remixed.touched_entries, 0);
        assert_eq!(remixed.points, solo_small.points);
        // The remix inherits the longer sweep's deficit: a bound on its
        // own trimmed mass, still inside the window's share of ε.
        assert!(remixed.window_deficit >= solo_small.window_deficit);
        assert!(remixed.window_deficit <= opts.epsilon / 2.0);
    }

    #[test]
    fn budget_cancels_windowed_extension_and_rerun_is_bit_identical() {
        // Cancel a windowed *extension* part-way: the cache keeps only
        // whole iterations (iterate, window and deficit), so finishing
        // the extension later matches a never-cancelled one bit for bit.
        let n = 120;
        let chain = lattice_chain(n, 1.0, 0.3);
        let alpha = point_mass(n, n - 1);
        let mut measure = vec![0.0; n];
        measure[0] = 1.0;
        let opts = windowed_opts();
        let double = scaled_chain(&chain, 2.0);
        let mut clean = CurveCache::new();
        let head =
            measure_curve_cached(&chain, &alpha, &[5.0], &measure, &opts, &mut clean).unwrap();
        let uncancelled =
            measure_curve_cached(&double, &alpha, &[5.0], &measure, &opts, &mut clean).unwrap();
        assert!(uncancelled.iterations > 3, "need room to cancel");

        let mut cache = CurveCache::new();
        measure_curve_cached(&chain, &alpha, &[5.0], &measure, &opts, &mut cache).unwrap();
        let err = measure_curve_budgeted(
            &double,
            &alpha,
            &[5.0],
            &measure,
            &opts,
            &mut cache,
            &Budget::cancelled_after_checks(2),
        )
        .unwrap_err();
        assert_eq!(err, MarkovError::DeadlineExceeded { completed: 2 });
        let finished =
            measure_curve_cached(&double, &alpha, &[5.0], &measure, &opts, &mut cache).unwrap();
        assert!(cache.last_solve_shared());
        assert_eq!(finished.points, uncancelled.points);
        assert_eq!(finished.window_deficit, uncancelled.window_deficit);
        assert_eq!(finished.iterations + 2, uncancelled.iterations);
        let independent = measure_curve(&double, &alpha, &[5.0], &measure, &opts).unwrap();
        assert_eq!(finished.points, independent.points);
        assert_eq!(
            head.touched_entries + uncancelled.touched_entries,
            independent.touched_entries
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// One cache through a rate-rescale family in random member
        /// order, across random chain sizes, horizons and thread counts:
        /// every member's curve equals a fresh independent solve bit for
        /// bit, whether it started, extended or remixed the shared sweep.
        #[test]
        fn shared_cache_matches_solos_in_any_member_order(
            n in 24usize..120,
            down in 0.3f64..2.0,
            up in 0.0f64..1.0,
            t in 5.0f64..60.0,
            threads in 1usize..=8,
            gammas in proptest::collection::vec(0usize..5, 1..8),
            windowed in 0usize..2,
        ) {
            use proptest::prelude::*;
            let scales = [0.125, 0.25, 0.5, 1.0, 2.0];
            let chain = lattice_chain(n, down, up);
            let alpha = point_mass(n, n - 1);
            let mut measure = vec![0.0; n];
            measure[0] = 1.0;
            let opts = TransientOptions {
                representation: Representation::Banded,
                active_window: windowed == 1,
                threads,
                ..Default::default()
            };
            let mut cache = CurveCache::new();
            for (j, &g) in gammas.iter().enumerate() {
                let member = scaled_chain(&chain, scales[g]);
                // Staggered horizons, so members extend and remix.
                let times = [t / (j + 1) as f64, t];
                let shared =
                    measure_curve_cached(&member, &alpha, &times, &measure, &opts, &mut cache)
                        .unwrap();
                let solo = measure_curve(&member, &alpha, &times, &measure, &opts).unwrap();
                prop_assert_eq!(&shared.points, &solo.points);
                prop_assert_eq!(cache.last_solve_shared(), j > 0);
                prop_assert!(shared.window_deficit <= opts.epsilon / 2.0);
            }
        }

        /// The satellite property: across random lattice chains, time
        /// horizons and thread counts 1–8, window trimming never loses
        /// more than the documented ε mass and the curve stays within ε
        /// of the sequential CSR engine.
        #[test]
        fn window_trimming_bounded_by_epsilon(
            n in 32usize..160,
            down in 0.3f64..2.0,
            up in 0.0f64..1.0,
            t in 5.0f64..80.0,
            threads in 1usize..=8,
        ) {
            use proptest::prelude::*;
            let chain = lattice_chain(n, down, up);
            let alpha = point_mass(n, n - 1);
            let mut measure = vec![0.0; n];
            measure[0] = 1.0;
            let eps = 1e-10;
            let times = [t / 4.0, t];
            let csr = measure_curve(&chain, &alpha, &times, &measure, &TransientOptions {
                epsilon: eps,
                representation: Representation::Csr,
                threads: 1,
                ..Default::default()
            }).unwrap();
            let windowed = measure_curve(&chain, &alpha, &times, &measure, &TransientOptions {
                epsilon: eps,
                representation: Representation::Banded,
                active_window: true,
                threads,
                ..Default::default()
            }).unwrap();
            // Documented deficit bound: half the ε budget (measure is an
            // indicator, so no ‖m‖∞ scaling).
            prop_assert!(windowed.window_deficit <= eps / 2.0,
                "deficit {} > {}", windowed.window_deficit, eps / 2.0);
            // Each engine is within ε of the true curve (CSR: full ε to
            // Fox–Glynn; windowed: ε/2 + ε/2), so their distance is
            // provably ≤ 2ε — assert the provable bound, not ε, so a
            // run where both engines land near-budget on opposite sides
            // cannot fail spuriously.
            for (a, w) in csr.points.iter().zip(&windowed.points) {
                prop_assert!((a.1 - w.1).abs() <= 2.0 * eps,
                    "t = {}: csr {} vs windowed {}", a.0, a.1, w.1);
            }
        }
    }
}
