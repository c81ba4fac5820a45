//! The unified solver facade: one [`Scenario`] in, one
//! [`LifetimeDistribution`] out, whichever method computes it.
//!
//! The paper answers `Pr[battery empty at t]` three ways — the §5
//! Markovian approximation, stochastic simulation, and Sericola's exact
//! algorithm for `c = 1`. Each is wrapped as a [`LifetimeSolver`]:
//!
//! * [`DiscretisationSolver`] — builds the derived CTMC at the
//!   scenario's `Δ` and solves it by uniformisation; applies to every
//!   scenario;
//! * [`SimulationSolver`] — parallel streaming Monte Carlo over the
//!   exact KiBaMRM dynamics; applies to every scenario, statistical
//!   error only (with an optional adaptive stopping rule that runs
//!   until the Wilson confidence band is tight enough);
//! * [`SericolaSolver`] — the exact algorithm; applies only to linear
//!   (`c = 1`) scenarios, where it is the gold standard.
//!
//! A [`SolverRegistry`] holds an ordered set of backends,
//! [`auto`](SolverRegistry::auto)-selects the best applicable one
//! (exact beats approximate; earlier registration wins ties), and
//! [`sweep`](SolverRegistry::sweep)s scenario grids across worker
//! threads — the hook batching and sharding layers build on.
//!
//! ```
//! use kibamrm::scenario::Scenario;
//! use kibamrm::solver::SolverRegistry;
//!
//! let scenario = Scenario::paper_cell_phone().unwrap();
//! let registry = SolverRegistry::with_default_backends();
//! // c = 0.625: auto picks the discretisation backend.
//! assert_eq!(registry.auto(&scenario).unwrap().name(), "discretisation");
//! let dist = registry.solve(&scenario).unwrap();
//! assert!(dist.cdf(units::Time::from_hours(30.0)) > 0.95);
//! ```

use crate::analysis::exact_linear_curve;
use crate::discretise::{DiscretisationOptions, DiscretisationTemplate, DiscretisedModel};
use crate::distribution::{LifetimeDistribution, SolveDiagnostics};
use crate::scenario::Scenario;
use crate::simulate::lifetime_study;
use crate::simulate::streaming_lifetime_study_budgeted;
use crate::sweep::SweepPlan;
use crate::KibamRmError;
use markov::transient::{CurveCache, Representation, TransientOptions};
use markov::Budget;
use sim::engine::{McOptions, McPool};
use std::time::Instant;
use units::Time;

/// Thread-budget knobs for a solver run, composing the two layers of
/// parallelism without oversubscription:
///
/// * **scenario-level** — how many scenarios a [`SolverRegistry::sweep`]
///   solves concurrently;
/// * **row-level** — a **cap** on the SpMV pool workers each individual
///   solve may spawn ([`markov::pool::SpmvPool`] inside the
///   uniformisation engine). The cap never *raises* a backend's own
///   configured thread count (e.g.
///   [`DiscretisationSolver::with_threads`]); it only bounds it, so a
///   sweep can divide the machine between concurrent solves.
///
/// `sweep` divides `row_threads` by the number of active sweep workers
/// before applying it, so the two layers compose without
/// oversubscribing the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverOptions {
    /// Concurrent scenario solves in a sweep (default: available
    /// parallelism).
    pub scenario_threads: usize,
    /// Row-level worker cap per solve (default: available parallelism —
    /// i.e. no cap beyond the machine itself, leaving each backend's
    /// own thread configuration in charge).
    pub row_threads: usize,
    /// Storage-format selection for uniformisation-based backends
    /// (default [`Representation::Auto`]: lattice chains iterate banded
    /// matrices with the active window, unstructured ones generic CSR).
    /// A non-`Auto` value overrides whatever the backend was configured
    /// with; `Auto` defers to the backend's own
    /// [`TransientOptions::representation`].
    pub representation: Representation,
}

impl Default for SolverOptions {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SolverOptions {
            scenario_threads: cores,
            row_threads: cores,
            representation: Representation::Auto,
        }
    }
}

impl SolverOptions {
    /// Fully sequential execution (one scenario at a time, one thread per
    /// solve).
    pub fn sequential() -> Self {
        SolverOptions {
            scenario_threads: 1,
            row_threads: 1,
            representation: Representation::Auto,
        }
    }

    /// Row-level worker count for one solve when `active` scenarios run
    /// concurrently: the row budget split across the active solves,
    /// never below 1.
    pub fn row_threads_per_solve(&self, active: usize) -> usize {
        (self.row_threads / active.max(1)).max(1)
    }
}

/// What a backend can do with a given scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Capability {
    /// The method computes the distribution exactly (up to numerics).
    Exact,
    /// The method approximates it (discretisation / statistical error).
    Approximate,
    /// The method does not apply; the string says why.
    Unsupported(String),
}

impl Capability {
    /// Higher is better; `Unsupported` ranks zero.
    fn rank(&self) -> u8 {
        match self {
            Capability::Exact => 2,
            Capability::Approximate => 1,
            Capability::Unsupported(_) => 0,
        }
    }

    /// `true` unless the backend refuses the scenario.
    pub fn is_supported(&self) -> bool {
        !matches!(self, Capability::Unsupported(_))
    }
}

/// Warm per-group solver state: everything a backend can carry from one
/// member solve to the next — assembled patterns, curve caches, worker
/// pools. [`LifetimeSolver::solve_group`] threads one such state through
/// a batch group, and [`crate::service::LifetimeService`] keeps them
/// **resident** across requests, so an online burst of structurally
/// identical queries amortises exactly like a batch sweep.
///
/// The state is opaque to callers; a backend downcasts its own state
/// back out via [`GroupState::as_any_mut`]. States must be `Send`
/// (a resident service migrates them between request threads), but need
/// not be `Sync` — the holder serialises access, mirroring how a batch
/// group solves its members in sequence.
pub trait GroupState: Send {
    /// Downcasting hook for the owning backend ([`std::any::Any`]).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A battery-lifetime computation backend.
pub trait LifetimeSolver: Send + Sync {
    /// Stable identifier (`"discretisation"`, `"simulation"`,
    /// `"sericola"`, …).
    fn name(&self) -> &'static str;

    /// Capability introspection: can this backend handle `scenario`,
    /// and how well?
    fn capability(&self, scenario: &Scenario) -> Capability;

    /// Convenience: does the backend apply at all?
    fn supports(&self, scenario: &Scenario) -> bool {
        self.capability(scenario).is_supported()
    }

    /// Computes `t ↦ Pr[battery empty at t]` on the scenario's grid.
    ///
    /// # Errors
    ///
    /// Backend-specific validation and numerical errors; solvers must
    /// refuse (not mis-answer) scenarios they report as unsupported.
    fn solve(&self, scenario: &Scenario) -> Result<LifetimeDistribution, KibamRmError>;

    /// [`LifetimeSolver::solve`] under an explicit thread budget. The
    /// default implementation ignores the budget (most backends are
    /// single-threaded per solve); backends with internal row-level
    /// parallelism override it.
    ///
    /// # Errors
    ///
    /// As for [`LifetimeSolver::solve`].
    fn solve_with(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        let _ = options;
        self.solve(scenario)
    }

    /// [`LifetimeSolver::solve_with`] under a cooperative
    /// [`markov::Budget`]. Backends with iteration-granular check points
    /// (discretisation, simulation) override this so an exhausted budget
    /// interrupts the engine mid-solve; the default only fails fast on a
    /// budget that is *already* exhausted and otherwise runs the solve
    /// to completion.
    ///
    /// # Errors
    ///
    /// As for [`LifetimeSolver::solve_with`], plus
    /// [`KibamRmError::DeadlineExceeded`] on budget exhaustion.
    fn solve_with_budget(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        if budget.is_exhausted() {
            return Err(KibamRmError::DeadlineExceeded { completed: 0 });
        }
        self.solve_with(scenario, options)
    }

    /// A fingerprint of the solver-relevant **structure** of the
    /// scenario: two scenarios with equal fingerprints may share
    /// assembled artefacts (matrix patterns, workspaces, whole
    /// uniformisation sweeps) when solved through
    /// [`LifetimeSolver::solve_group`], and the sweep planner
    /// ([`crate::sweep::SweepPlan`]) groups a batch by this key. `None`
    /// (the default) opts the backend out of grouping — every scenario
    /// solves independently.
    fn sweep_fingerprint(&self, scenario: &Scenario) -> Option<u64> {
        let _ = scenario;
        None
    }

    /// Creates the warm state a group of structurally identical
    /// scenarios (equal [`LifetimeSolver::sweep_fingerprint`]) threads
    /// through its member solves — the group-resource handle a batch
    /// sweep holds for one group and a resident service keeps alive
    /// across requests. `None` (the default) means the backend has no
    /// shareable state: every member solves independently.
    fn new_group_state(&self, options: &SolverOptions) -> Option<Box<dyn GroupState>> {
        let _ = options;
        None
    }

    /// One member solve through warm group state (created by
    /// [`LifetimeSolver::new_group_state`] on this same backend).
    /// Implementations must return results **bit-identical** to
    /// [`LifetimeSolver::solve_with`] on the same options — shared state
    /// is an optimisation, never an approximation — and must fall back
    /// to an independent solve when handed a state they do not
    /// recognise.
    ///
    /// # Errors
    ///
    /// As for [`LifetimeSolver::solve_with`].
    fn solve_in_group(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
        state: &mut dyn GroupState,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        let _ = state;
        self.solve_with(scenario, options)
    }

    /// [`LifetimeSolver::solve_in_group`] under a cooperative
    /// [`markov::Budget`] — the member-solve entry point the resident
    /// service uses for per-request deadlines. A budget-interrupted
    /// solve must leave the group state in a consistent state: re-running
    /// the same member to completion afterwards is bit-identical to
    /// never having cancelled. The default only fails fast on an
    /// already-exhausted budget; cooperative backends override it.
    ///
    /// # Errors
    ///
    /// As for [`LifetimeSolver::solve_in_group`], plus
    /// [`KibamRmError::DeadlineExceeded`] on budget exhaustion.
    fn solve_in_group_budgeted(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
        state: &mut dyn GroupState,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        if budget.is_exhausted() {
            return Err(KibamRmError::DeadlineExceeded { completed: 0 });
        }
        self.solve_in_group(scenario, options, state)
    }

    /// Solves a group of structurally identical scenarios (equal
    /// [`LifetimeSolver::sweep_fingerprint`]), returning one result per
    /// scenario in order. The default threads one
    /// [`LifetimeSolver::new_group_state`] through
    /// [`LifetimeSolver::solve_in_group`] member by member (falling back
    /// to independent solves for stateless backends), so batch sweeps
    /// and the resident service share one amortisation code path.
    /// Results are **bit-identical** to [`LifetimeSolver::solve_with`]
    /// on the same options — grouping is an optimisation, never an
    /// approximation.
    fn solve_group(
        &self,
        scenarios: &[&Scenario],
        options: &SolverOptions,
    ) -> Vec<Result<LifetimeDistribution, KibamRmError>> {
        match self.new_group_state(options) {
            Some(mut state) => scenarios
                .iter()
                .map(|s| self.solve_in_group(s, options, state.as_mut()))
                .collect(),
            None => scenarios
                .iter()
                .map(|s| self.solve_with(s, options))
                .collect(),
        }
    }
}

// --------------------------------------------------------------------
// Discretisation backend (paper §5).
// --------------------------------------------------------------------

/// The paper's Markovian approximation as a solver.
#[derive(Debug, Clone, Default)]
pub struct DiscretisationSolver {
    transient: TransientOptions,
    recovery_from_empty: bool,
}

impl DiscretisationSolver {
    /// A solver with default numerics.
    pub fn new() -> Self {
        DiscretisationSolver::default()
    }

    /// Overrides the uniformisation options (threads, ε, ν factor…).
    #[must_use]
    pub fn with_transient(mut self, transient: TransientOptions) -> Self {
        self.transient = transient;
        self
    }

    /// Sets the worker-thread count for matrix–vector products.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.transient.threads = threads;
        self
    }

    /// Enables the paper's §5.2 recovery-from-empty extension for
    /// chains built with [`DiscretisationSolver::discretise`]. The
    /// measure then becomes the transient `Pr[empty at t]` — no longer
    /// monotone, hence not a lifetime CDF — so
    /// [`LifetimeSolver::solve`] refuses this configuration instead of
    /// returning a distribution whose quantile/mean operations would be
    /// silently meaningless.
    #[must_use]
    pub fn with_recovery_from_empty(mut self) -> Self {
        self.recovery_from_empty = true;
        self
    }

    /// The uniformisation options this solver will use.
    pub fn transient(&self) -> &TransientOptions {
        &self.transient
    }

    /// The derived CTMC for `scenario` (for size/stats consumers like
    /// the complexity accounting harness).
    ///
    /// # Errors
    ///
    /// Propagates model and discretisation errors.
    pub fn discretise(&self, scenario: &Scenario) -> Result<DiscretisedModel, KibamRmError> {
        let model = scenario.to_model()?;
        let opts = self.discretisation_options(scenario)?;
        DiscretisedModel::build(&model, &opts)
    }

    fn discretisation_options(
        &self,
        scenario: &Scenario,
    ) -> Result<DiscretisationOptions, KibamRmError> {
        let mut opts = DiscretisationOptions::with_delta(scenario.effective_delta()?);
        opts.transient = self.transient;
        opts.recovery_from_empty = self.recovery_from_empty;
        Ok(opts)
    }

    /// One member of a sweep-plan group: discretise through the group's
    /// shared [`DiscretisationTemplate`] (building it on the first
    /// member) and solve through the group's [`CurveCache`]. Results are
    /// bit-identical to [`DiscretisationSolver::solve`]; the sharing only
    /// skips work whose outcome is provably the same bits.
    fn solve_grouped_one(
        &self,
        scenario: &Scenario,
        template: &mut Option<DiscretisationTemplate>,
        cache: &mut CurveCache,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        if self.recovery_from_empty {
            return self.solve(scenario); // same refusal as the solo path
        }
        // Fail fast before building the derived CTMC (assembly has no
        // check points of its own). `is_exhausted` does not consume a
        // deterministic check, so iteration counting stays exact.
        if budget.is_exhausted() {
            return Err(KibamRmError::DeadlineExceeded { completed: 0 });
        }
        let started = Instant::now();
        let model = scenario.to_model()?;
        let opts = self.discretisation_options(scenario)?;
        let disc = match template.as_ref() {
            // A template mismatch (planner grouped too eagerly, or a
            // fingerprint collision) falls back to a fresh build — the
            // fallback also reproduces genuine validation errors.
            Some(t) => DiscretisedModel::build_with_template(&model, &opts, t)
                .or_else(|_| DiscretisedModel::build(&model, &opts))?,
            None => {
                let d = DiscretisedModel::build(&model, &opts)?;
                *template = d.template(&model, &opts).ok();
                d
            }
        };
        let curve = disc.empty_probability_curve_budgeted(scenario.times(), cache, budget)?;
        self.distribution_from_curve(scenario, &disc, &curve, started)
    }

    /// Shared result assembly of the solo and grouped solve paths: the
    /// curve zipped back onto the query grid plus the size/iteration
    /// diagnostics.
    fn distribution_from_curve(
        &self,
        scenario: &Scenario,
        disc: &DiscretisedModel,
        curve: &markov::transient::CurveSolution,
        started: Instant,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        let stats = disc.stats();
        let points = scenario
            .times()
            .iter()
            .zip(&curve.points)
            .map(|(&t, &(_, p))| (t, p))
            .collect();
        LifetimeDistribution::new(
            self.name(),
            points,
            SolveDiagnostics {
                states: Some(stats.states),
                generator_nonzeros: Some(stats.generator_nonzeros),
                iterations: Some(curve.iterations),
                delta: Some(scenario.effective_delta()?),
                runs: None,
                half_width: None,
                wall_seconds: started.elapsed().as_secs_f64(),
            },
        )
    }

    /// The solver with a sweep-level thread budget applied, mirroring
    /// what [`LifetimeSolver::solve_with`] does before solving.
    fn with_budget(&self, options: &SolverOptions) -> DiscretisationSolver {
        let mut solver = self.clone();
        solver.transient.threads = solver.transient.threads.min(options.row_threads.max(1));
        if options.representation != Representation::Auto {
            solver.transient.representation = options.representation;
        }
        solver
    }
}

impl LifetimeSolver for DiscretisationSolver {
    fn name(&self) -> &'static str {
        "discretisation"
    }

    fn capability(&self, _scenario: &Scenario) -> Capability {
        Capability::Approximate
    }

    fn solve(&self, scenario: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
        if self.recovery_from_empty {
            return Err(KibamRmError::InvalidDiscretisation(
                "recovery-from-empty yields the transient Pr[empty at t], which is \
                 not a lifetime CDF; use DiscretisationSolver::discretise and \
                 empty_probability_curve for that measure"
                    .into(),
            ));
        }
        let started = Instant::now();
        let disc = self.discretise(scenario)?;
        let curve = disc.empty_probability_curve(scenario.times())?;
        self.distribution_from_curve(scenario, &disc, &curve, started)
    }

    fn solve_with(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        // Row-level parallelism is this backend's SpMV pool: the budget
        // the registry hands down (already divided among concurrent
        // sweep workers) acts as a cap — it never raises a thread count
        // this solver was explicitly configured with. An explicit
        // (non-Auto) representation in the budget overrides the
        // backend's; Auto leaves the backend's own choice in place.
        self.with_budget(options).solve(scenario)
    }

    fn solve_with_budget(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        // A fresh template/cache pair reproduces the solo path bit for
        // bit (grouping is an optimisation, never an approximation), so
        // the budgeted solo solve reuses the grouped engine.
        self.with_budget(options).solve_grouped_one(
            scenario,
            &mut None,
            &mut CurveCache::new(),
            budget,
        )
    }

    fn sweep_fingerprint(&self, scenario: &Scenario) -> Option<u64> {
        if self.recovery_from_empty {
            // solve() refuses this configuration; don't group refusals.
            return None;
        }
        let model = scenario.to_model().ok()?;
        let opts = self.discretisation_options(scenario).ok()?;
        crate::discretise::structural_fingerprint(&model, &opts).ok()
    }

    fn new_group_state(&self, options: &SolverOptions) -> Option<Box<dyn GroupState>> {
        let _ = options;
        // One template, one curve cache for the whole group: the banded
        // pattern, DIA offsets, state labels and Fox–Glynn workspace are
        // assembled on the first member; later members refill numeric
        // values, and rate-rescaled members reuse the whole
        // uniformisation sweep (see [`markov::transient::CurveCache`]).
        Some(Box::new(DiscretisationGroupState {
            template: None,
            cache: CurveCache::new(),
        }))
    }

    fn solve_in_group(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
        state: &mut dyn GroupState,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        self.solve_in_group_budgeted(scenario, options, state, &Budget::unlimited())
    }

    fn solve_in_group_budgeted(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
        state: &mut dyn GroupState,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        match state
            .as_any_mut()
            .downcast_mut::<DiscretisationGroupState>()
        {
            Some(st) => self.with_budget(options).solve_grouped_one(
                scenario,
                &mut st.template,
                &mut st.cache,
                budget,
            ),
            // Not our state (a caller's bookkeeping slip): solve
            // independently rather than mis-share.
            None => self.solve_with_budget(scenario, options, budget),
        }
    }
}

/// The discretisation backend's warm group state: the shared
/// [`DiscretisationTemplate`] (pattern, offsets, labels — value-refilled
/// per member) and the [`CurveCache`] (Fox–Glynn workspace, SpMV pool,
/// and the reusable uniformisation sweep of a rate-rescale family).
#[derive(Debug, Default)]
pub struct DiscretisationGroupState {
    template: Option<DiscretisationTemplate>,
    cache: CurveCache,
}

impl DiscretisationGroupState {
    /// Approximate heap footprint of the warm state in bytes — what a
    /// resident holder's warm-budget accounting charges for this group.
    pub fn approx_bytes(&self) -> usize {
        self.cache.approx_bytes()
    }

    /// Whether the group's last member solve was served off the shared
    /// uniformisation sweep (extended or remixed) rather than a fresh
    /// one; see [`CurveCache::last_solve_shared`].
    pub fn last_solve_shared(&self) -> bool {
        self.cache.last_solve_shared()
    }
}

impl GroupState for DiscretisationGroupState {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

// --------------------------------------------------------------------
// Simulation backend (paper §6's validation baseline).
// --------------------------------------------------------------------

/// Monte Carlo over the exact KiBaMRM dynamics as a solver — the
/// parallel streaming engine ([`sim::engine::McPool`]).
///
/// Replications run on a worker pool in fixed batches whose partial
/// accumulators merge in batch order, with per-replication
/// counter-derived RNG streams — so a solve's result is **bit-identical
/// for any thread count** (the same guarantee the SpMV pool gives the
/// uniformisation engine). Memory is O(time-grid), independent of the
/// replication count, which makes 10⁶–10⁷ replications practical.
///
/// The default stopping rule runs exactly the scenario's
/// [`sim_runs`](Scenario::sim_runs); [`SimulationSolver::with_adaptive`]
/// instead doubles the replication count until the largest 95 % Wilson
/// half-width over the query grid drops below a target (or a cap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationSolver {
    horizon: Option<Time>,
    threads: usize,
    batch: u64,
    target_half_width: Option<f64>,
    max_runs: u64,
}

impl Default for SimulationSolver {
    fn default() -> Self {
        let defaults = McOptions::default();
        SimulationSolver {
            horizon: None,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            batch: defaults.batch,
            target_half_width: None,
            max_runs: defaults.max_runs,
        }
    }
}

impl SimulationSolver {
    /// A solver simulating up to the scenario's last query time, using
    /// every available core.
    pub fn new() -> Self {
        SimulationSolver::default()
    }

    /// Extends the simulation horizon beyond the scenario's last query
    /// time (useful when the tail of the *observed* lifetimes matters,
    /// e.g. for [`SimulationSolver::study`] quantiles). A horizon
    /// shorter than the query grid is ignored: the empirical CDF is
    /// only valid up to the horizon, so shortening it would silently
    /// flatline the tail of the answer.
    #[must_use]
    pub fn with_horizon(mut self, horizon: Time) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Sets the worker-thread count for replication batches (results do
    /// not depend on it — that is the engine's bit-identity guarantee).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enables adaptive stopping: after the scenario's `sim_runs`
    /// initial replications, the engine keeps doubling the replication
    /// count until the largest 95 % Wilson half-width over the query
    /// grid is at most `target_half_width`, or `max_runs` replications
    /// have been spent. The solve's `runs` diagnostic reports the count
    /// actually used.
    #[must_use]
    pub fn with_adaptive(mut self, target_half_width: f64, max_runs: u64) -> Self {
        self.target_half_width = Some(target_half_width);
        self.max_runs = max_runs;
        self
    }

    /// Sets the replications-per-batch scheduling quantum (the merge
    /// unit of the parallel engine; results do not depend on it beyond
    /// floating-point reassociation of the moment sketches).
    #[must_use]
    pub fn with_batch(mut self, batch: u64) -> Self {
        self.batch = batch;
        self
    }

    /// The simulation horizon for `scenario`: never short of the query
    /// grid (empirical CDF values past the horizon would be silently
    /// wrong).
    fn effective_horizon(&self, scenario: &Scenario) -> Time {
        self.horizon
            .map_or(scenario.horizon(), |h| h.max(scenario.horizon()))
    }

    fn engine_options(&self, scenario: &Scenario) -> Result<McOptions, KibamRmError> {
        if scenario.sim_runs() == 0 {
            return Err(KibamRmError::InvalidWorkload(
                "scenario requests zero simulation replications; set a positive \
                 count with with_simulation(runs, seed)"
                    .into(),
            ));
        }
        let runs = scenario.sim_runs() as u64;
        Ok(McOptions {
            runs,
            batch: self.batch.max(1),
            target_half_width: self.target_half_width,
            // The cap never truncates the initial round the scenario
            // asked for.
            max_runs: self.max_runs.max(runs),
        })
    }

    /// The exact empirical reference study (order-statistics quantiles
    /// of *observed* lifetimes, confidence intervals, …). Keeps every
    /// lifetime — O(runs) memory — and always runs **exactly** the
    /// scenario's `sim_runs` replications: the adaptive stopping rule
    /// applies only to the streaming paths
    /// ([`LifetimeSolver::solve`] / [`SimulationSolver::streaming_study`]),
    /// so under `with_adaptive` this study describes the solve's *initial
    /// round*, not its full replication count. An all-censored study is
    /// returned as the valid all-zero curve.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors and the zero-replication refusal.
    pub fn study(
        &self,
        scenario: &Scenario,
    ) -> Result<sim::replication::LifetimeStudy, KibamRmError> {
        let model = scenario.to_model()?;
        self.engine_options(scenario)?; // zero-runs refusal
        lifetime_study(
            &model,
            self.effective_horizon(scenario),
            scenario.sim_runs(),
            scenario.sim_seed(),
        )
    }

    /// The streaming study behind a solve: fixed-grid depletion counts
    /// over the scenario's query times plus moment sketches, produced by
    /// the parallel engine under this solver's stopping rule (O(grid)
    /// memory, bit-identical for any thread count).
    ///
    /// # Errors
    ///
    /// As for [`LifetimeSolver::solve`].
    pub fn streaming_study(
        &self,
        scenario: &Scenario,
    ) -> Result<sim::streaming::StreamingLifetimeStudy, KibamRmError> {
        let pool = McPool::new(self.threads);
        self.streaming_study_on(scenario, &pool, &Budget::unlimited())
    }

    /// [`SimulationSolver::streaming_study`] on an existing worker pool
    /// (what [`LifetimeSolver::solve_group`] shares across a sweep
    /// group).
    fn streaming_study_on(
        &self,
        scenario: &Scenario,
        pool: &McPool,
        budget: &Budget,
    ) -> Result<sim::streaming::StreamingLifetimeStudy, KibamRmError> {
        let model = scenario.to_model()?;
        let opts = self.engine_options(scenario)?;
        streaming_lifetime_study_budgeted(
            &model,
            scenario.times(),
            self.effective_horizon(scenario),
            scenario.sim_seed(),
            &opts,
            pool,
            budget,
        )
    }

    /// One solve on a given pool (shared result assembly of the solo and
    /// grouped paths).
    fn solve_on(
        &self,
        scenario: &Scenario,
        pool: &McPool,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        // Fail fast before building the model (`is_exhausted` does not
        // consume a deterministic check, keeping batch counting exact).
        if budget.is_exhausted() {
            return Err(KibamRmError::DeadlineExceeded { completed: 0 });
        }
        let started = Instant::now();
        let study = self.streaming_study_on(scenario, pool, budget)?;
        // One prefix pass over the buckets, not per-point re-summing.
        let n = study.total_runs() as f64;
        let points = scenario
            .times()
            .iter()
            .zip(study.cumulative_counts())
            .map(|(&t, count)| (t, if n > 0.0 { count as f64 / n } else { 0.0 }))
            .collect();
        LifetimeDistribution::new(
            self.name(),
            points,
            SolveDiagnostics {
                states: None,
                generator_nonzeros: None,
                iterations: None,
                delta: None,
                runs: Some(study.total_runs() as usize),
                // The statistical error bound of this answer — what a
                // degraded service response surfaces to the caller.
                half_width: Some(study.max_half_width()),
                wall_seconds: started.elapsed().as_secs_f64(),
            },
        )
    }

    /// The solver with a sweep-level thread budget applied: the budget
    /// caps this backend's worker count, it never raises it.
    fn with_budget(&self, options: &SolverOptions) -> SimulationSolver {
        let mut solver = *self;
        solver.threads = solver.threads.min(options.row_threads.max(1));
        solver
    }
}

impl LifetimeSolver for SimulationSolver {
    fn name(&self) -> &'static str {
        "simulation"
    }

    fn capability(&self, _scenario: &Scenario) -> Capability {
        Capability::Approximate
    }

    fn solve(&self, scenario: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
        self.solve_on(scenario, &McPool::new(self.threads), &Budget::unlimited())
    }

    fn solve_with(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        // Replication-level parallelism is this backend's worker pool:
        // the row-thread budget (already divided among concurrent sweep
        // workers) caps it, exactly as it caps the SpMV pool of the
        // discretisation backend. The answer does not depend on the cap
        // — only the wall time does.
        self.with_budget(options).solve(scenario)
    }

    fn solve_with_budget(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        let solver = self.with_budget(options);
        solver.solve_on(scenario, &McPool::new(solver.threads), budget)
    }

    fn sweep_fingerprint(&self, scenario: &Scenario) -> Option<u64> {
        if scenario.sim_runs() == 0 {
            // solve() refuses this scenario; don't group refusals.
            return None;
        }
        // Every simulation-backed scenario shares the same trajectory
        // machinery (the worker pool); grouping them into one plan group
        // lets a sweep spawn the pool once instead of once per scenario.
        // Seeds are per-scenario counter-derived streams, so sharing the
        // pool cannot couple members — results stay bit-identical to
        // independent solves by construction.
        Some(u64::from_le_bytes(*b"MCPOOL\0\0"))
    }

    fn new_group_state(&self, options: &SolverOptions) -> Option<Box<dyn GroupState>> {
        // One worker pool for the whole group (and, in a resident
        // service, for the process lifetime): workers spawn once, not
        // once per scenario.
        Some(Box::new(SimulationGroupState {
            pool: McPool::new(self.with_budget(options).threads),
        }))
    }

    fn solve_in_group(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
        state: &mut dyn GroupState,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        self.solve_in_group_budgeted(scenario, options, state, &Budget::unlimited())
    }

    fn solve_in_group_budgeted(
        &self,
        scenario: &Scenario,
        options: &SolverOptions,
        state: &mut dyn GroupState,
        budget: &Budget,
    ) -> Result<LifetimeDistribution, KibamRmError> {
        match state.as_any_mut().downcast_mut::<SimulationGroupState>() {
            Some(st) => self
                .with_budget(options)
                .solve_on(scenario, &st.pool, budget),
            None => self.solve_with_budget(scenario, options, budget),
        }
    }
}

/// The simulation backend's warm group state: the long-lived
/// [`McPool`]. Per-replication counter-derived RNG streams keep pooled
/// solves bit-identical to independent ones, so the pool can serve any
/// number of scenarios (and requests) without coupling them.
#[derive(Debug)]
pub struct SimulationGroupState {
    pool: McPool,
}

impl SimulationGroupState {
    /// Worker count of the resident pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

impl GroupState for SimulationGroupState {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

// --------------------------------------------------------------------
// Sericola backend (exact, c = 1 only).
// --------------------------------------------------------------------

/// Sericola's exact performability algorithm as a solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct SericolaSolver;

impl SericolaSolver {
    /// A solver with default options.
    pub fn new() -> Self {
        SericolaSolver
    }
}

impl LifetimeSolver for SericolaSolver {
    fn name(&self) -> &'static str {
        "sericola"
    }

    fn capability(&self, scenario: &Scenario) -> Capability {
        if scenario.is_linear() {
            Capability::Exact
        } else {
            Capability::Unsupported(format!(
                "Sericola's algorithm requires c = 1 (all charge available), \
                 scenario has c = {}",
                scenario.c()
            ))
        }
    }

    fn solve(&self, scenario: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
        let started = Instant::now();
        let model = scenario.to_model()?;
        let curve = exact_linear_curve(&model, scenario.times())?;
        let points = scenario
            .times()
            .iter()
            .zip(&curve)
            .map(|(&t, &(_, p))| (t, p))
            .collect();
        LifetimeDistribution::new(
            self.name(),
            points,
            SolveDiagnostics {
                states: None,
                generator_nonzeros: None,
                iterations: None,
                delta: None,
                runs: None,
                half_width: None,
                wall_seconds: started.elapsed().as_secs_f64(),
            },
        )
    }
}

// --------------------------------------------------------------------
// Registry: selection, dispatch, batch sweeps.
// --------------------------------------------------------------------

/// An ordered collection of solver backends.
pub struct SolverRegistry {
    solvers: Vec<Box<dyn LifetimeSolver>>,
    options: SolverOptions,
}

impl std::fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverRegistry")
            .field(
                "solvers",
                &self.solvers.iter().map(|s| s.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Default for SolverRegistry {
    fn default() -> Self {
        SolverRegistry::with_default_backends()
    }
}

impl SolverRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        SolverRegistry {
            solvers: Vec::new(),
            options: SolverOptions::default(),
        }
    }

    /// Replaces the thread-budget options (see [`SolverOptions`]).
    #[must_use]
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// The registry's thread-budget options.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// The standard set: Sericola (exact where it applies), then the
    /// Markovian approximation, then simulation.
    pub fn with_default_backends() -> Self {
        let mut r = SolverRegistry::empty();
        r.register(Box::new(SericolaSolver::new()));
        r.register(Box::new(DiscretisationSolver::new()));
        r.register(Box::new(SimulationSolver::new()));
        r
    }

    /// Appends a backend (later = lower priority among equal
    /// capabilities).
    pub fn register(&mut self, solver: Box<dyn LifetimeSolver>) {
        self.solvers.push(solver);
    }

    /// The registered backends, in priority order.
    pub fn solvers(&self) -> impl Iterator<Item = &dyn LifetimeSolver> {
        self.solvers.iter().map(|s| s.as_ref())
    }

    /// Looks a backend up by name.
    pub fn find(&self, name: &str) -> Option<&dyn LifetimeSolver> {
        self.solvers().find(|s| s.name() == name)
    }

    /// Picks the best applicable backend for `scenario`: exact beats
    /// approximate, earlier registration breaks ties. With the default
    /// backends this selects Sericola for `c = 1` scenarios and the
    /// discretisation solver otherwise.
    ///
    /// # Errors
    ///
    /// [`KibamRmError::InvalidWorkload`] when no backend supports the
    /// scenario; the message collects each backend's refusal reason.
    pub fn auto(&self, scenario: &Scenario) -> Result<&dyn LifetimeSolver, KibamRmError> {
        self.auto_index(scenario).map(|i| self.solvers[i].as_ref())
    }

    /// [`SolverRegistry::auto`] returning the backend's registry index —
    /// what the sweep planner keys its groups by.
    pub(crate) fn auto_index(&self, scenario: &Scenario) -> Result<usize, KibamRmError> {
        let mut best: Option<(usize, u8)> = None;
        let mut reasons = Vec::new();
        for (i, solver) in self.solvers().enumerate() {
            match solver.capability(scenario) {
                Capability::Unsupported(why) => reasons.push(format!("{}: {why}", solver.name())),
                cap => {
                    let rank = cap.rank();
                    if best.is_none_or(|(_, r)| rank > r) {
                        best = Some((i, rank));
                    }
                }
            }
        }
        best.map(|(i, _)| i).ok_or_else(|| {
            KibamRmError::InvalidWorkload(format!(
                "no registered solver supports scenario '{}': {}",
                scenario.name(),
                if reasons.is_empty() {
                    "registry is empty".to_owned()
                } else {
                    reasons.join("; ")
                }
            ))
        })
    }

    /// The backend at registry index `i` (sweep-plan execution).
    pub(crate) fn solver_at(&self, i: usize) -> &dyn LifetimeSolver {
        self.solvers[i].as_ref()
    }

    /// Auto-selects a backend and solves.
    ///
    /// # Errors
    ///
    /// Selection errors from [`SolverRegistry::auto`] plus the chosen
    /// backend's solve errors.
    pub fn solve(&self, scenario: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
        self.auto(scenario)?.solve_with(scenario, &self.options)
    }

    /// Solves a whole scenario grid through a structure-sharing
    /// [`SweepPlan`]: byte-identical scenarios are deduplicated (one
    /// solve, one result **per input slot**), structurally identical
    /// scenarios are grouped so each group assembles its lattice pattern,
    /// DIA offsets and Fox–Glynn workspace once (and rate-rescaled
    /// families share a single uniformisation sweep), and the groups fan
    /// out over the registry's scenario-thread budget. Results come back
    /// in input order, **bit-identical** to solving each scenario
    /// independently under the same per-solve thread budget (the cached
    /// fast paths are exact; only a *different* effective row-worker
    /// count can move last bits, because the fused-dot reduction order
    /// follows the worker count — with `row_threads = 1`, or chains
    /// below the parallel-SpMV threshold, planned and independent solves
    /// agree bit for bit unconditionally); per-scenario failures do not
    /// abort the batch.
    pub fn sweep(&self, scenarios: &[Scenario]) -> Vec<Result<LifetimeDistribution, KibamRmError>> {
        self.sweep_with_threads(scenarios, self.options.scenario_threads)
    }

    /// [`SolverRegistry::sweep`] with an explicit worker count.
    ///
    /// The plan's groups are striped across the workers, and the
    /// registry's row-thread budget is divided by the active worker
    /// count, so scenario-level and row-level parallelism compose
    /// without oversubscribing the machine.
    pub fn sweep_with_threads(
        &self,
        scenarios: &[Scenario],
        threads: usize,
    ) -> Vec<Result<LifetimeDistribution, KibamRmError>> {
        let plan = SweepPlan::build(self, scenarios);
        self.execute_plan(&plan, scenarios, threads)
    }

    /// The pre-planner per-scenario sweep: auto-select and solve every
    /// scenario independently, with no deduplication and no structure
    /// sharing. Kept as the reference baseline the planner is benchmarked
    /// (and property-tested) against.
    pub fn sweep_naive(
        &self,
        scenarios: &[Scenario],
    ) -> Vec<Result<LifetimeDistribution, KibamRmError>> {
        self.sweep_naive_with_threads(scenarios, self.options.scenario_threads)
    }

    /// [`SolverRegistry::sweep_naive`] with an explicit worker count.
    ///
    /// Each worker owns a disjoint slice of the result vector (no result
    /// mutex), and the registry's row-thread budget is divided by the
    /// active worker count, so scenario-level and row-level parallelism
    /// compose without oversubscribing the machine.
    pub fn sweep_naive_with_threads(
        &self,
        scenarios: &[Scenario],
        threads: usize,
    ) -> Vec<Result<LifetimeDistribution, KibamRmError>> {
        let workers = threads.max(1).min(scenarios.len().max(1));
        let per_solve = SolverOptions {
            row_threads: self.options.row_threads_per_solve(workers),
            ..self.options
        };
        let solve_one = |s: &Scenario| match self.auto(s) {
            Ok(solver) => solver.solve_with(s, &per_solve),
            Err(e) => Err(e),
        };
        if workers <= 1 || scenarios.len() <= 1 {
            return scenarios.iter().map(solve_one).collect();
        }
        let mut results: Vec<Option<Result<LifetimeDistribution, KibamRmError>>> =
            (0..scenarios.len()).map(|_| None).collect();
        let chunk = scenarios.len().div_ceil(workers);
        // Workers write through disjoint `chunks_mut` slices — no shared
        // lock, no post-hoc reassembly. Static contiguous chunking trades
        // away dynamic load balancing: a grid sorted by cost (e.g. a Δ
        // sweep fine-to-coarse) serialises its expensive scenarios in one
        // worker's chunk, so cost-skewed grids should be shuffled by the
        // caller (or solved with row_threads > 1, which the per-solve
        // budget above keeps from oversubscribing).
        std::thread::scope(|scope| {
            for (scenario_chunk, result_chunk) in
                scenarios.chunks(chunk).zip(results.chunks_mut(chunk))
            {
                let solve_one = &solve_one;
                scope.spawn(move || {
                    for (scenario, slot) in scenario_chunk.iter().zip(result_chunk.iter_mut()) {
                        *slot = Some(solve_one(scenario));
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every chunk filled"))
            .collect()
    }

    /// Expands a [`crate::sweep::ScenarioGrid`] and solves it through the
    /// planned sweep, returning the labelled result set.
    ///
    /// # Errors
    ///
    /// Grid expansion errors (invalid axis values); per-point solve
    /// failures are reported inside the result set instead.
    pub fn sweep_grid(
        &self,
        grid: &crate::sweep::ScenarioGrid,
    ) -> Result<crate::distribution::SweepResultSet, KibamRmError> {
        let scenarios = grid.expand()?;
        let labels = scenarios.iter().map(|s| s.name().to_owned()).collect();
        let results = self.sweep(&scenarios);
        crate::distribution::SweepResultSet::new(labels, results)
    }

    /// Runs an already-built plan over `scenarios` (the slice the plan
    /// was built from) with `threads` sweep workers.
    fn execute_plan(
        &self,
        plan: &SweepPlan,
        scenarios: &[Scenario],
        threads: usize,
    ) -> Vec<Result<LifetimeDistribution, KibamRmError>> {
        let groups = plan.groups();
        let workers = threads.max(1).min(groups.len().max(1));
        let per_solve = SolverOptions {
            row_threads: self.options.row_threads_per_solve(workers),
            ..self.options
        };
        let run_group =
            |group: &crate::sweep::PlanGroup| -> Vec<(usize, Result<LifetimeDistribution, KibamRmError>)> {
                let solver = self.solver_at(group.solver_index());
                let members: Vec<&Scenario> =
                    group.members().iter().map(|&i| &scenarios[i]).collect();
                let mut results = if members.len() == 1 {
                    vec![solver.solve_with(members[0], &per_solve)]
                } else {
                    solver.solve_group(&members, &per_solve)
                };
                // A malformed backend returning the wrong count must not
                // poison unrelated slots.
                while results.len() < members.len() {
                    results.push(Err(KibamRmError::InvalidWorkload(format!(
                        "backend '{}' returned {} results for a group of {}",
                        solver.name(),
                        results.len(),
                        members.len()
                    ))));
                }
                results.truncate(members.len());
                group.members().iter().copied().zip(results).collect()
            };

        let mut results: Vec<Option<Result<LifetimeDistribution, KibamRmError>>> =
            (0..scenarios.len()).map(|_| None).collect();
        if workers <= 1 || groups.len() <= 1 {
            for group in groups {
                for (i, r) in run_group(group) {
                    results[i] = Some(r);
                }
            }
        } else {
            // Groups are striped across workers (group k → worker
            // k mod workers): cheap static balancing that spreads a
            // cost-sorted grid's expensive groups over all workers.
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let run_group = &run_group;
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            for group in groups.iter().skip(w).step_by(workers) {
                                out.extend(run_group(group));
                            }
                            out
                        })
                    })
                    .collect();
                for handle in handles {
                    for (i, r) in handle.join().expect("sweep worker panicked") {
                        results[i] = Some(r);
                    }
                }
            });
        }
        // Duplicates copy their canonical slot's result; unsupported
        // scenarios report the selection error. Canonical slots always
        // precede their duplicates, so one ascending pass settles both.
        for i in 0..scenarios.len() {
            match plan.slot(i) {
                crate::sweep::PlanSlot::Grouped => {}
                crate::sweep::PlanSlot::Unsupported(e) => results[i] = Some(Err(e.clone())),
                crate::sweep::PlanSlot::DuplicateOf(j) => {
                    let r = results[*j].clone().expect("canonical slot filled first");
                    results[i] = Some(r);
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }

    /// Runs **every** applicable backend on the scenario and reports the
    /// pairwise sup-distances — the paper's §6 triple cross-check as an
    /// API, so users can validate their own models before trusting a
    /// coarse-`Δ` approximation.
    ///
    /// # Errors
    ///
    /// When no backend applies, or any applicable backend fails.
    pub fn cross_validate(&self, scenario: &Scenario) -> Result<CrossValidation, KibamRmError> {
        let mut results = Vec::new();
        for solver in self.solvers() {
            if solver.supports(scenario) {
                results.push(solver.solve(scenario)?);
            }
        }
        if results.is_empty() {
            return Err(KibamRmError::InvalidWorkload(format!(
                "no registered solver supports scenario '{}'",
                scenario.name()
            )));
        }
        let mut pairwise = Vec::new();
        for i in 0..results.len() {
            for j in i + 1..results.len() {
                pairwise.push((
                    results[i].method(),
                    results[j].method(),
                    results[i].max_difference(&results[j])?,
                ));
            }
        }
        Ok(CrossValidation { results, pairwise })
    }
}

/// Every applicable method's answer for one scenario, plus how far apart
/// they are.
#[derive(Debug, Clone)]
pub struct CrossValidation {
    /// One distribution per applicable backend, in registry order.
    pub results: Vec<LifetimeDistribution>,
    /// `(method a, method b, sup |a − b|)` for every pair.
    pub pairwise: Vec<(&'static str, &'static str, f64)>,
}

impl CrossValidation {
    /// The result computed by `method`, if that backend ran.
    pub fn result(&self, method: &str) -> Option<&LifetimeDistribution> {
        self.results.iter().find(|d| d.method() == method)
    }

    /// The largest pairwise disagreement (0 for a single method).
    pub fn max_disagreement(&self) -> f64 {
        self.pairwise.iter().map(|&(_, _, d)| d).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use units::{Charge, Current, Frequency};

    /// Small linear scenario: Sericola stays cheap (νt ≈ 500).
    fn small_linear() -> Scenario {
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        Scenario::builder()
            .name("small-linear")
            .workload(w)
            .capacity(Charge::from_amp_seconds(72.0))
            .linear()
            .times(
                (1..=24)
                    .map(|i| Time::from_seconds(i as f64 * 10.0))
                    .collect(),
            )
            .delta(Charge::from_amp_seconds(0.25))
            .simulation(400, 31)
            .build()
            .unwrap()
    }

    fn two_well() -> Scenario {
        Scenario::paper_cell_phone().unwrap()
    }

    #[test]
    fn auto_picks_sericola_for_linear_scenarios() {
        let registry = SolverRegistry::with_default_backends();
        assert_eq!(registry.auto(&small_linear()).unwrap().name(), "sericola");
        assert_eq!(registry.auto(&two_well()).unwrap().name(), "discretisation");
    }

    #[test]
    fn capability_introspection() {
        let s = two_well();
        assert!(matches!(
            SericolaSolver::new().capability(&s),
            Capability::Unsupported(_)
        ));
        assert!(!SericolaSolver::new().supports(&s));
        assert!(DiscretisationSolver::new().supports(&s));
        assert!(SimulationSolver::new().supports(&s));
        assert!(SericolaSolver::new().supports(&small_linear()));
        assert!(Capability::Exact.rank() > Capability::Approximate.rank());
        assert!(!Capability::Unsupported("x".into()).is_supported());
    }

    #[test]
    fn sericola_refuses_unsupported_scenarios() {
        let err = SericolaSolver::new().solve(&two_well());
        assert!(matches!(err, Err(KibamRmError::InvalidBattery(_))));
    }

    #[test]
    fn all_three_backends_agree_on_the_small_linear_scenario() {
        let s = small_linear();
        let exact = SericolaSolver::new().solve(&s).unwrap();
        let approx = DiscretisationSolver::new().solve(&s).unwrap();
        let sim = SimulationSolver::new().solve(&s).unwrap();
        assert_eq!(exact.method(), "sericola");
        assert_eq!(approx.method(), "discretisation");
        assert_eq!(sim.method(), "simulation");
        // The paper's own Fig. 7 message: the phase-type approximation of
        // a near-deterministic CDF converges slowly in Δ, so the centre
        // still smears at 288 levels; simulation only carries binomial
        // noise (400 runs ⇒ σ ≈ 0.025).
        assert!(exact.max_difference(&approx).unwrap() < 0.15);
        assert!(exact.max_difference(&sim).unwrap() < 0.1);
        // Diagnostics reflect the method.
        assert!(approx.diagnostics().states.unwrap() > 100);
        assert!(approx.diagnostics().iterations.unwrap() > 0);
        assert_eq!(sim.diagnostics().runs, Some(400));
        assert_eq!(exact.diagnostics().states, None);
    }

    #[test]
    fn recovery_from_empty_refuses_the_cdf_facade() {
        // The transient Pr[empty at t] is not a lifetime CDF; solve()
        // must refuse rather than hand out meaningless quantiles.
        let solver = DiscretisationSolver::new().with_recovery_from_empty();
        let err = solver.solve(&small_linear());
        assert!(matches!(err, Err(KibamRmError::InvalidDiscretisation(_))));
        // The derived chain itself remains reachable for that measure.
        assert!(solver.discretise(&two_well()).is_ok());
    }

    #[test]
    fn zero_replications_report_a_precise_error() {
        let s = small_linear().with_simulation(0, 1);
        let err = SimulationSolver::new().solve(&s).expect_err("zero runs");
        assert!(
            err.to_string().contains("zero simulation replications"),
            "{err}"
        );
    }

    #[test]
    fn simulation_horizon_never_shrinks_below_the_query_grid() {
        // A horizon shorter than the grid would flatline the CDF tail
        // (empirical CDFs are only valid up to the horizon); the solver
        // must clamp it to the last query time instead.
        let s = small_linear();
        let clamped = SimulationSolver::new()
            .with_horizon(Time::from_seconds(50.0)) // grid runs to 240 s
            .solve(&s)
            .unwrap();
        let default = SimulationSolver::new().solve(&s).unwrap();
        assert!(
            clamped.max_difference(&default).unwrap() < 1e-12,
            "short horizon must be ignored"
        );
        assert!(
            clamped.points().last().unwrap().1 > 0.9,
            "tail must keep rising past the bogus horizon"
        );
    }

    #[test]
    fn registry_solve_dispatches_and_matches_direct_calls() {
        let registry = SolverRegistry::with_default_backends();
        let s = small_linear();
        let via_registry = registry.solve(&s).unwrap();
        let direct = SericolaSolver::new().solve(&s).unwrap();
        assert_eq!(via_registry.method(), "sericola");
        assert!(via_registry.max_difference(&direct).unwrap() < 1e-12);
    }

    #[test]
    fn sweep_preserves_order_and_isolates_failures() {
        let registry = SolverRegistry::with_default_backends();
        let base = two_well().with_simulation(50, 1);
        // A grid over Δ, including the classic failure mode: a Δ that
        // divides neither well.
        let grid = [
            base.with_delta(Charge::from_milliamp_hours(25.0)),
            base.with_delta(Charge::from_milliamp_hours(7.0)),
            base.with_delta(Charge::from_milliamp_hours(50.0)),
        ];
        let results = registry.sweep_with_threads(&grid, 3);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(KibamRmError::InvalidDiscretisation(_))
        ));
        assert!(results[2].is_ok());
        // Finer Δ means more derived states.
        let fine = results[0].as_ref().unwrap().diagnostics().states.unwrap();
        let coarse = results[2].as_ref().unwrap().diagnostics().states.unwrap();
        assert!(fine > coarse);
        // Single-threaded path gives identical answers.
        let serial = registry.sweep_with_threads(&grid, 1);
        assert!(
            results[0]
                .as_ref()
                .unwrap()
                .max_difference(serial[0].as_ref().unwrap())
                .unwrap()
                .abs()
                < 1e-15
        );
    }

    #[test]
    fn solver_options_compose_without_oversubscription() {
        let opts = SolverOptions {
            scenario_threads: 4,
            row_threads: 8,
            ..Default::default()
        };
        // 4 active sweep workers each get a cap of 8/4 = 2 row threads.
        assert_eq!(opts.row_threads_per_solve(4), 2);
        // More workers than row budget: every solve stays sequential.
        assert_eq!(opts.row_threads_per_solve(16), 1);
        assert_eq!(opts.row_threads_per_solve(0), 8, "clamped to one worker");
        assert_eq!(SolverOptions::sequential().scenario_threads, 1);
        // The default budget is the machine itself — no cap beyond it,
        // so registry.solve never lowers an explicitly configured
        // backend (regression: it used to force row_threads = 1).
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(SolverOptions::default().row_threads, cores);

        let registry = SolverRegistry::with_default_backends().with_options(opts);
        assert_eq!(*registry.options(), opts);
        // solve_with on the discretisation backend honours the budget
        // and produces the same curve as the plain solve.
        let s = two_well()
            .with_delta(Charge::from_milliamp_hours(50.0))
            .with_simulation(10, 1);
        let solver = DiscretisationSolver::new();
        let budgeted = solver.solve_with(&s, &opts).unwrap();
        let plain = solver.solve(&s).unwrap();
        assert!(budgeted.max_difference(&plain).unwrap() < 1e-12);
        // Backends without row-level parallelism ignore the budget.
        let sim = SimulationSolver::new();
        let a = sim.solve_with(&s, &opts).unwrap();
        let b = sim.solve(&s).unwrap();
        assert!(a.max_difference(&b).unwrap() < 1e-15);
    }

    #[test]
    fn representation_override_flows_through_solve_with() {
        // SolverOptions can pin the storage format; the curve must not
        // depend on which representation computed it (within ε).
        let s = two_well()
            .with_delta(Charge::from_milliamp_hours(50.0))
            .with_simulation(10, 1);
        let solver = DiscretisationSolver::new();
        let auto = solver.solve(&s).unwrap();
        let forced_csr = solver
            .solve_with(
                &s,
                &SolverOptions {
                    representation: Representation::Csr,
                    ..SolverOptions::sequential()
                },
            )
            .unwrap();
        let forced_banded = solver
            .solve_with(
                &s,
                &SolverOptions {
                    representation: Representation::Banded,
                    ..SolverOptions::sequential()
                },
            )
            .unwrap();
        // Auto and forced-banded both run the active window (ε split),
        // so the provable bound against the full-ε CSR engine is 2ε
        // with the default ε = 1e-10.
        assert!(auto.max_difference(&forced_csr).unwrap() < 2e-10);
        assert!(forced_banded.max_difference(&forced_csr).unwrap() < 2e-10);
        // Auto in the budget defers to the backend's own configuration.
        let opts = SolverOptions::sequential();
        assert_eq!(opts.representation, Representation::Auto);
    }

    #[test]
    fn duplicate_time_grids_fail_cleanly_through_sweep() {
        // Scenario validation (the first line of defence) rejects
        // duplicate/unsorted grids at every construction path…
        let s = small_linear();
        let t = Time::from_seconds(10.0);
        assert!(s.with_times(vec![t, t]).is_err(), "with_times duplicates");
        assert!(
            s.with_times(vec![Time::from_seconds(20.0), t]).is_err(),
            "with_times unsorted"
        );
        // …including the config round-trip.
        let cfg: String = s
            .to_config_string()
            .unwrap()
            .lines()
            .map(|l| {
                if l.starts_with("times_s") {
                    "times_s 10 10 20\n".to_owned()
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        assert!(
            Scenario::from_config_str(&cfg).is_err(),
            "config duplicates"
        );

        // And the second line: a backend that hands the facade a
        // duplicated grid gets a per-scenario error out of sweep(),
        // without poisoning the neighbouring scenarios (regression for
        // LifetimeDistribution construction from bad grids).
        struct DuplicateGrid;
        impl LifetimeSolver for DuplicateGrid {
            fn name(&self) -> &'static str {
                "duplicate-grid"
            }
            fn capability(&self, _s: &Scenario) -> Capability {
                Capability::Exact
            }
            fn solve(&self, _s: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
                let t = Time::from_seconds(5.0);
                LifetimeDistribution::new(
                    "duplicate-grid",
                    vec![(t, 0.1), (t, 0.2)],
                    SolveDiagnostics::default(),
                )
            }
        }
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(DuplicateGrid));
        let results = registry.sweep_with_threads(&[s.clone(), s], 2);
        assert_eq!(results.len(), 2);
        for r in &results {
            let err = r.as_ref().expect_err("duplicated grid must fail");
            assert!(
                err.to_string().contains("strictly increasing"),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn all_censored_scenario_yields_zero_curve_through_sweep() {
        // Regression: a scenario whose battery outlives every simulated
        // run used to abort with StatsError::Empty, poisoning its sweep
        // slot. It must come back as the valid all-zero curve.
        let w = Workload::on_off_erlang(Frequency::from_hertz(1.0), 1, Current::from_amps(0.96))
            .unwrap();
        let long_lived = Scenario::builder()
            .name("long-lived")
            .workload(w)
            .capacity(Charge::from_amp_seconds(7200.0)) // ~15 000 s life
            .linear()
            .times(
                (1..=8)
                    .map(|i| Time::from_seconds(i as f64 * 10.0))
                    .collect(), // grid ends at 80 s: nothing depletes
            )
            .simulation(25, 3)
            .build()
            .unwrap();
        let normal = small_linear().with_simulation(50, 2);

        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(SimulationSolver::new()));
        let results = registry.sweep(&[long_lived.clone(), normal]);
        assert_eq!(results.len(), 2);
        let zero = results[0].as_ref().expect("all-censored must not fail");
        assert!(zero.points().iter().all(|&(_, p)| p == 0.0));
        assert_eq!(zero.diagnostics().runs, Some(25));
        assert!(results[1].as_ref().unwrap().points().last().unwrap().1 > 0.5);

        // The study views agree: zero depletions, unidentified
        // quantiles, but a real (positive) confidence band.
        let solver = SimulationSolver::new();
        let study = solver.study(&long_lived).unwrap();
        assert_eq!(study.depleted_runs(), 0);
        assert_eq!(study.lifetime_quantile(0.5), None);
        let streaming = solver.streaming_study(&long_lived).unwrap();
        assert_eq!(streaming.depleted_runs(), 0);
        assert!(streaming.max_half_width() > 0.0);
    }

    #[test]
    fn simulation_groups_share_one_pool_and_match_independent_solves() {
        // The sweep planner groups every simulation-backed scenario into
        // one pool-sharing group; results must be bit-identical to
        // independent solves (per-scenario counter-derived streams make
        // this hold by construction).
        let mut registry = SolverRegistry::empty();
        registry.register(Box::new(SimulationSolver::new()));
        let base = small_linear();
        let batch = vec![
            base.with_simulation(60, 1),
            base.with_simulation(60, 2), // same runs, different stream family
            base.with_simulation(90, 1),
            base.clone(),
        ];
        let plan = crate::sweep::SweepPlan::build(&registry, &batch);
        assert_eq!(plan.groups().len(), 1, "one pool-sharing group");
        assert_eq!(plan.groups()[0].members().len(), 4);

        let swept = registry.sweep_with_threads(&batch, 2);
        for (s, r) in batch.iter().zip(&swept) {
            let independent = SimulationSolver::new()
                .solve_with(s, &SolverOptions::sequential())
                .unwrap();
            let r = r.as_ref().unwrap();
            assert_eq!(
                r.points(),
                independent.points(),
                "scenario {} differs from its independent solve",
                s.name()
            );
        }
        // Different seeds really gave different curves (streams are
        // per-scenario, not shared through the pool).
        assert_ne!(
            swept[0].as_ref().unwrap().points(),
            swept[1].as_ref().unwrap().points()
        );
        // A zero-run scenario opts out of grouping entirely.
        assert_eq!(
            SimulationSolver::new().sweep_fingerprint(&base.with_simulation(0, 1)),
            None
        );
    }

    #[test]
    fn adaptive_stopping_meets_the_band_and_reports_true_runs() {
        let s = small_linear().with_simulation(100, 7);
        let solver = SimulationSolver::new()
            .with_adaptive(0.02, 1 << 16)
            .with_batch(64);
        let dist = solver.solve(&s).unwrap();
        let runs = dist.diagnostics().runs.unwrap();
        assert!(
            runs > 100,
            "adaptive rule must extend past the initial round"
        );
        assert!(runs <= 1 << 16);
        let study = solver.streaming_study(&s).unwrap();
        assert_eq!(study.total_runs() as usize, runs);
        assert!(
            study.max_half_width() <= 0.02,
            "band {} misses the target",
            study.max_half_width()
        );
        // More replications than requested, but the curve still matches
        // the fixed-run solve statistically (same model, same streams up
        // to the shared prefix).
        let fixed = SimulationSolver::new().solve(&s).unwrap();
        assert!(dist.max_difference(&fixed).unwrap() < 0.1);
        // The adaptive solve is itself deterministic.
        let again = solver.solve(&s).unwrap();
        assert_eq!(dist.points(), again.points());
    }

    #[test]
    fn cross_validation_runs_every_applicable_method() {
        let registry = SolverRegistry::with_default_backends();
        let cv = registry.cross_validate(&small_linear()).unwrap();
        assert_eq!(cv.results.len(), 3);
        assert_eq!(cv.pairwise.len(), 3);
        assert!(cv.result("sericola").is_some());
        assert!(cv.result("nope").is_none());
        assert!(cv.max_disagreement() < 0.2, "{}", cv.max_disagreement());

        // Two-well scenario: Sericola drops out.
        let quick = two_well()
            .with_delta(Charge::from_milliamp_hours(50.0))
            .with_simulation(60, 3);
        let cv = registry.cross_validate(&quick).unwrap();
        assert_eq!(cv.results.len(), 2);
        assert!(cv.result("sericola").is_none());
    }

    #[test]
    fn custom_backends_and_empty_registries() {
        struct Refuser;
        impl LifetimeSolver for Refuser {
            fn name(&self) -> &'static str {
                "refuser"
            }
            fn capability(&self, _s: &Scenario) -> Capability {
                Capability::Unsupported("always refuses".into())
            }
            fn solve(&self, _s: &Scenario) -> Result<LifetimeDistribution, KibamRmError> {
                unreachable!("never selected")
            }
        }
        let mut registry = SolverRegistry::empty();
        let err = registry
            .auto(&small_linear())
            .err()
            .expect("empty registry refuses");
        assert!(err.to_string().contains("registry is empty"), "{err}");
        registry.register(Box::new(Refuser));
        let err = registry
            .auto(&small_linear())
            .err()
            .expect("refuser refuses");
        assert!(err.to_string().contains("always refuses"), "{err}");
        assert!(registry.find("refuser").is_some());
        assert!(registry.find("sericola").is_none());
        assert!(registry.cross_validate(&small_linear()).is_err());
        // Debug formatting lists backend names.
        assert!(format!("{registry:?}").contains("refuser"));
    }

    #[test]
    fn discretisation_cancelled_in_group_then_rerun_is_bit_identical() {
        // The tentpole cancellation contract at the solver layer: a
        // budget-interrupted member solve leaves the warm group state
        // consistent, so re-running the same member to completion gives
        // exactly the bits an uninterrupted solve would have.
        let solver = DiscretisationSolver::new();
        let s = two_well();
        let options = SolverOptions::sequential();
        let reference = solver.solve_with(&s, &options).unwrap();
        for k in [0, 1, 7] {
            let mut state = solver.new_group_state(&options).unwrap();
            let err = solver
                .solve_in_group_budgeted(
                    &s,
                    &options,
                    state.as_mut(),
                    &Budget::cancelled_after_checks(k),
                )
                .expect_err("budget must interrupt the sweep");
            assert_eq!(
                err,
                KibamRmError::DeadlineExceeded {
                    completed: k as usize
                },
                "k = {k}"
            );
            let rerun = solver
                .solve_in_group_budgeted(&s, &options, state.as_mut(), &Budget::unlimited())
                .unwrap();
            assert_eq!(rerun.points(), reference.points(), "k = {k}");
        }
    }

    #[test]
    fn simulation_cancelled_in_group_then_rerun_is_bit_identical() {
        let solver = SimulationSolver::new().with_batch(100);
        let s = small_linear(); // 400 replications in 4 batches
        let options = SolverOptions::sequential();
        let reference = solver.solve_with(&s, &options).unwrap();
        let mut state = solver.new_group_state(&options).unwrap();
        let err = solver
            .solve_in_group_budgeted(
                &s,
                &options,
                state.as_mut(),
                &Budget::cancelled_after_checks(2),
            )
            .expect_err("budget must stop the batch loop");
        assert_eq!(err, KibamRmError::DeadlineExceeded { completed: 200 });
        let rerun = solver
            .solve_in_group_budgeted(&s, &options, state.as_mut(), &Budget::unlimited())
            .unwrap();
        assert_eq!(rerun.points(), reference.points());
        assert_eq!(rerun.diagnostics().runs, Some(400));
        let hw = rerun.diagnostics().half_width.unwrap();
        assert!(hw > 0.0 && hw < 0.2, "Wilson half-width {hw}");
    }

    #[test]
    fn exhausted_budget_fails_fast_for_every_backend() {
        let s = small_linear();
        let options = SolverOptions::sequential();
        let expired = Budget::cancelled_after_checks(0);
        for solver in [
            Box::new(DiscretisationSolver::new()) as Box<dyn LifetimeSolver>,
            Box::new(SimulationSolver::new()),
            Box::new(SericolaSolver::new()),
        ] {
            let err = solver
                .solve_with_budget(&s, &options, &expired)
                .expect_err("expired budget must refuse");
            assert_eq!(
                err,
                KibamRmError::DeadlineExceeded { completed: 0 },
                "{}",
                solver.name()
            );
        }
    }

    #[test]
    fn budgeted_solo_solves_match_the_plain_paths_bit_for_bit() {
        let options = SolverOptions::sequential();
        let s = two_well();
        let a = DiscretisationSolver::new()
            .solve_with(&s, &options)
            .unwrap();
        let b = DiscretisationSolver::new()
            .solve_with_budget(&s, &options, &Budget::unlimited())
            .unwrap();
        assert_eq!(a.points(), b.points());
        let s = small_linear();
        let a = SimulationSolver::new().solve_with(&s, &options).unwrap();
        let b = SimulationSolver::new()
            .solve_with_budget(&s, &options, &Budget::unlimited())
            .unwrap();
        assert_eq!(a.points(), b.points());
    }

    #[test]
    fn group_windowed_family_is_bit_identical_to_independent_solves() {
        // A rate-rescale family solved as one group shares one
        // uniformisation sweep through the group's curve cache, on the
        // windowed banded engine and on CSR alike, and must return
        // exactly the curves of k independent solves — grouping is an
        // optimisation, never an approximation.
        let base = two_well().with_delta(Charge::from_milliamp_hours(50.0));
        let family: Vec<Scenario> = [0.25, 0.5, 1.0, 2.0]
            .iter()
            .map(|&g| base.with_rate_scale(g).unwrap())
            .collect();
        let members: Vec<&Scenario> = family.iter().collect();
        let solver = DiscretisationSolver::new();
        for representation in [Representation::Banded, Representation::Csr] {
            let options = SolverOptions {
                representation,
                ..SolverOptions::sequential()
            };
            let grouped = solver.solve_group(&members, &options);
            let mut iterations = 0;
            for (s, got) in members.iter().zip(&grouped) {
                let got = got.as_ref().unwrap();
                let solo = solver.solve_with(s, &options).unwrap();
                assert_eq!(got.points(), solo.points(), "{representation:?}");
                iterations += got.diagnostics().iterations.unwrap();
            }
            // The members after the first only extend the shared sweep:
            // the group runs as many products as its widest member alone.
            let widest = solver.solve_with(members[3], &options).unwrap();
            assert_eq!(
                Some(iterations),
                widest.diagnostics().iterations,
                "{representation:?}"
            );
        }
    }
}
