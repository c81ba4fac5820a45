//! The four workloads' measured (untraced) runs, and what the traced runs
//! share with them: set-up, the closed and open loops, and the
//! correctness checks.

use crate::inputs::{self, Class, FleetTrace};
use crate::layers;
use crate::openloop;
use crate::report::Report;
use crate::serve::{self, KeepAlive, Response, ServerProc};
use crate::stats;
use crate::sys;
use crate::Ctx;
use kibamrm::scenario::Scenario;
use kibamrm::service::{LifetimeService, ServiceConfig};
use kibamrm::solver::SolverOptions;
use kibamrm::{DiscretisationSolver, LifetimeDistribution, LifetimeSolver, SolverRegistry};
use kibamrm_net::Json;
use markov::transient::{Representation, TransientOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run of the in-process workloads (each includes a warm-up
/// solve); `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// The HTTP workloads run in segments, each on a freshly set-up server,
/// so their set-ups are spread over the run like their requests are and
/// `setup_s` samples the host's speed at several moments, not one.
const HTTP_SEGMENTS: usize = 4;
/// Set-ups per segment (the last one serves the segment). Process start
/// jitters, so they repeat more than the in-process set-up.
const FLEET_SETUP_REPEATS: usize = 4;
const KEEPALIVE_SETUP_REPEATS: usize = 6;
/// Largest distance of a `solve-cold` answer from the independent
/// reference (both sides carry an ε = 1e-10 truncation budget).
const REFERENCE_TOLERANCE: f64 = 1e-8;
/// The work (states × iterations) of the operations of one size class
/// stays within this ratio.
const SIZE_CLASS_RATIO: f64 = 1.25;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The server's solve path: the default registry under the default
/// service options — what `kibamrm-serve` answers with.
pub fn server_registry() -> SolverRegistry {
    SolverRegistry::with_default_backends().with_options(ServiceConfig::default().options)
}

/// An independent reference for `solve-cold`: generic CSR storage, no
/// active window, one thread — a different kernel, storage and
/// truncation path from the default windowed DIA engine.
fn independent_solver() -> DiscretisationSolver {
    DiscretisationSolver::new().with_transient(TransientOptions {
        representation: Representation::Csr,
        active_window: false,
        threads: 1,
        ..TransientOptions::default()
    })
}

pub fn same_bits(a: &LifetimeDistribution, b: &LifetimeDistribution) -> bool {
    a.points().len() == b.points().len()
        && a.points()
            .iter()
            .zip(b.points())
            .all(|((ta, pa), (tb, pb))| {
                ta.as_seconds().to_bits() == tb.as_seconds().to_bits()
                    && pa.to_bits() == pb.to_bits()
            })
}

/// Sup-distance between two curves on the same grid.
pub fn sup_distance(a: &[(f64, f64)], b: &LifetimeDistribution) -> f64 {
    if a.len() != b.points().len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b.points())
        .map(|(&(_, p), &(_, q))| (p - q).abs())
        .fold(0.0, f64::max)
}

fn monotone(d: &LifetimeDistribution) -> bool {
    d.points().windows(2).all(|w| w[1].1 >= w[0].1 - 1e-12)
}

/// A `/query` answer as the client reads it.
pub struct Served {
    pub degraded: bool,
    pub bound: Option<f64>,
    pub kind: Option<String>,
    pub points: Vec<(f64, f64)>,
}

impl Served {
    pub fn parse(body: &[u8]) -> Result<Served, String> {
        let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_string())?;
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        let status = json.get("status").and_then(Json::as_str);
        let points = json
            .get("points")
            .and_then(Json::as_array)
            .ok_or("answer has no points")?
            .iter()
            .map(|p| match p.as_array() {
                Some([t, v]) => t.as_f64().zip(v.as_f64()).ok_or("non-numeric point"),
                _ => Err("point is not a pair"),
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Served {
            degraded: status == Some("degraded"),
            bound: json.get("bound").and_then(Json::as_f64),
            kind: json
                .get("source")
                .and_then(|s| s.get("kind"))
                .and_then(Json::as_str)
                .map(str::to_string),
            points,
        })
    }

    /// Bit-identical to `reference` on every time and value.
    pub fn matches(&self, reference: &LifetimeDistribution) -> bool {
        self.points.len() == reference.points().len()
            && self
                .points
                .iter()
                .zip(reference.points())
                .all(|(&(t, p), &(rt, rp))| {
                    t.to_bits() == rt.as_seconds().to_bits() && p.to_bits() == rp.to_bits()
                })
    }
}

/// Reports the noise guard: `modes` are `(name, share, median ms)`;
/// adjacent modes (by median) whose medians differ by more than 2× form
/// a boundary, and no reported percentile may sit within sampling noise
/// of one.
pub fn mode_guard(
    report: &mut Report,
    modes: &[(String, f64, f64)],
    percentiles: &[f64],
    n: usize,
) {
    let mut sorted: Vec<&(String, f64, f64)> = modes.iter().filter(|m| m.1 > 0.0).collect();
    sorted.sort_by(|a, b| a.2.total_cmp(&b.2));
    let shares: Vec<String> = sorted
        .iter()
        .map(|(name, share, median)| format!("{name}={:.2}%@{median:.3}ms", share * 100.0))
        .collect();
    println!("modes: {}", shares.join(" "));
    let mut cumulative = 0.0;
    for pair in sorted.windows(2) {
        cumulative += pair[0].1;
        if pair[1].2 <= 2.0 * pair[0].2 {
            continue;
        }
        for &p in percentiles {
            let near = stats::near_boundary(p, cumulative, n);
            report.check(!near, || {
                format!(
                    "p{p} of {n} samples sits at the {}/{} mode boundary ({:.3}%)",
                    pair[0].0,
                    pair[1].0,
                    cumulative * 100.0
                )
            });
        }
    }
}

/// Median of `setups` seconds, printed with the samples.
fn report_setup(report: &mut Report, setups: &[f64]) {
    println!("setup_s samples: {setups:?}");
    report.metric("setup_s", stats::median(setups));
}

/// Prints latency percentiles with their sample count and returns p50.
pub fn summarise(label: &str, latencies_ms: &[f64]) -> f64 {
    let sorted = stats::sorted(latencies_ms);
    if sorted.is_empty() {
        println!("{label}: no samples");
        return f64::NAN;
    }
    let p50 = stats::percentile(&sorted, 50.0);
    match stats::tail_percentile(sorted.len()) {
        Some(p) => println!(
            "{label}: n={} p50={p50:.4}ms p{p}={:.4}ms max={:.4}ms",
            sorted.len(),
            stats::percentile(&sorted, p),
            sorted[sorted.len() - 1]
        ),
        None => println!(
            "{label}: n={} p50={p50:.4}ms (too few samples for a tail)",
            sorted.len()
        ),
    }
    p50
}

/// The in-process set-up, [`SETUP_REPEATS`] times: build the default
/// registry under `options` and solve `warmup` (the warm-up the loop does
/// not time). Returns the last registry.
fn in_process_setup(
    report: &mut Report,
    warmup: &Scenario,
    options: SolverOptions,
) -> Result<SolverRegistry, String> {
    let mut setups = Vec::new();
    let mut registry = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let r = SolverRegistry::with_default_backends().with_options(options);
        black_box(r.solve(warmup).map_err(|e| format!("warm-up solve: {e}"))?);
        setups.push(started.elapsed().as_secs_f64());
        registry = Some(r);
    }
    report_setup(report, &setups);
    Ok(registry.expect("at least one set-up"))
}

/// End-to-end metrics of an in-process closed loop: `latencies_ms` per
/// loop operation, `ops` completed scenarios.
fn in_process_metrics(
    report: &mut Report,
    label: &str,
    latencies_ms: &[f64],
    ops: usize,
    wall: Duration,
    cpu_s: f64,
) -> Result<(), String> {
    report.metric("latency_p50_ms", summarise(label, latencies_ms));
    report.metric("throughput_ops", ops as f64 / wall.as_secs_f64());
    report.metric("cpu_ms_per_op", cpu_s * 1e3 / ops.max(1) as f64);
    report.metric("peak_rss_mb", sys::peak_rss_mib(None)?);
    Ok(())
}

// ---------------------------------------------------------------- solve-cold

pub fn solve_cold(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let pool = inputs::solve_cold(ctx.seed);
    if ctx.trace {
        return layers::trace_solve_cold(ctx, report, &pool);
    }
    let registry = in_process_setup(report, &pool[0], SolverOptions::default())?;

    let mut latencies = Vec::new();
    let mut per_scenario = vec![Vec::new(); pool.len()];
    let mut first: Vec<Option<LifetimeDistribution>> = vec![None; pool.len()];
    let cpu0 = sys::cpu_seconds(None)?;
    let start = Instant::now();
    for k in (0..pool.len()).cycle() {
        if start.elapsed() >= ctx.seconds {
            break;
        }
        let t = Instant::now();
        let result = registry.solve(&pool[k]);
        let dt = ms(t.elapsed());
        report.attempted += 1;
        match result {
            Ok(d) => {
                latencies.push(dt);
                per_scenario[k].push(dt);
                match &first[k] {
                    None => first[k] = Some(d),
                    Some(f) => report.check(same_bits(f, &d), || {
                        format!("solve of {} is not repeatable bit for bit", pool[k].name())
                    }),
                }
            }
            Err(e) => report.fail(format!("solve of {}: {e}", pool[k].name())),
        }
    }
    let wall = start.elapsed();
    let cpu = sys::cpu_seconds(None)? - cpu0;
    in_process_metrics(
        report,
        "solve latency",
        &latencies,
        latencies.len(),
        wall,
        cpu,
    )?;

    // Outside the timed phase: every answer against the independent
    // reference, and monotone in t.
    for (s, answer) in pool.iter().zip(&first) {
        let Some(answer) = answer else { continue };
        let reference = independent_solver().solve(s).map_err(|e| e.to_string())?;
        let sup = sup_distance(&answer.points_seconds(), &reference);
        println!("reference {}: sup-distance {sup:e}", s.name());
        report.check(sup <= REFERENCE_TOLERANCE, || {
            format!("{}: sup-distance {sup:e} from the CSR reference", s.name())
        });
        report.check(monotone(answer), || {
            format!("{}: CDF not monotone in t", s.name())
        });
    }
    let labels: Vec<String> = pool.iter().map(|s| s.name().to_string()).collect();
    let answers: Vec<Option<Vec<LifetimeDistribution>>> =
        first.iter().map(|a| a.clone().map(|a| vec![a])).collect();
    size_class_guard(report, &labels, &per_scenario, &answers);
    Ok(())
}

/// The in-process noise guard: every operation in one size class, so the
/// workload has a single mode. The class is judged on exact work
/// (states × uniformisation iterations of the answers), which host speed
/// swings cannot move; the latency shares are printed beside it.
fn size_class_guard(
    report: &mut Report,
    labels: &[String],
    per_op: &[Vec<f64>],
    answers: &[Option<Vec<LifetimeDistribution>>],
) {
    let total: usize = per_op.iter().map(Vec::len).sum();
    let mut shares = Vec::new();
    let mut work = Vec::new();
    for ((label, v), answers) in labels.iter().zip(per_op).zip(answers) {
        let Some(answers) = answers else { continue };
        let w: f64 = answers
            .iter()
            .map(|d| {
                let diag = d.diagnostics();
                (diag.states.unwrap_or(0) * diag.iterations.unwrap_or(0)) as f64
            })
            .sum();
        shares.push(format!(
            "{label}={:.1}%@{:.1}ms/{w:.3e}",
            100.0 * v.len() as f64 / total as f64,
            stats::median(v)
        ));
        work.push(w);
    }
    println!(
        "modes (share@median/states×iterations): {}",
        shares.join(" ")
    );
    let lo = work.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = work.iter().copied().fold(0.0, f64::max);
    report.check(work.is_empty() || hi <= SIZE_CLASS_RATIO * lo, || {
        format!("operation work {lo:.3e}–{hi:.3e} spans more than one size class")
    });
}

// -------------------------------------------------------------- sweep-family

/// `sweep-family` solves one scenario at a time on one thread: the loop
/// measures what the planner and family sharing save over `solve-cold`'s
/// per-member work, not how groups spread over cores (and one core is
/// less exposed to the host's speed swings).
pub fn sweep_options() -> SolverOptions {
    SolverOptions::sequential()
}

pub fn sweep_family(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let grids = inputs::sweep_grids(ctx.seed);
    if ctx.trace {
        return layers::trace_sweep_family(ctx, report, &grids);
    }
    let widest = grids[0].last().expect("non-empty grid");
    let registry = in_process_setup(report, widest, sweep_options())?;

    let mut latencies = Vec::new();
    let mut per_grid = vec![Vec::new(); grids.len()];
    let mut first: Vec<Option<Vec<LifetimeDistribution>>> = vec![None; grids.len()];
    let mut scenarios = 0usize;
    let cpu0 = sys::cpu_seconds(None)?;
    let start = Instant::now();
    for g in (0..grids.len()).cycle() {
        if start.elapsed() >= ctx.seconds {
            break;
        }
        let t = Instant::now();
        let results = registry.sweep(&grids[g]);
        let dt = ms(t.elapsed());
        report.attempted += results.len() as u64;
        let mut answers = Vec::with_capacity(results.len());
        for (s, r) in grids[g].iter().zip(results) {
            match r {
                Ok(d) => answers.push(d),
                Err(e) => report.fail(format!("sweep member {}: {e}", s.name())),
            }
        }
        if answers.len() != grids[g].len() {
            continue;
        }
        scenarios += answers.len();
        latencies.push(dt);
        per_grid[g].push(dt);
        match &first[g] {
            None => first[g] = Some(answers),
            Some(f) => report.check(f.iter().zip(&answers).all(|(a, b)| same_bits(a, b)), || {
                format!("grid {g} sweep is not repeatable bit for bit")
            }),
        }
    }
    let wall = start.elapsed();
    let cpu = sys::cpu_seconds(None)? - cpu0;
    in_process_metrics(report, "grid latency", &latencies, scenarios, wall, cpu)?;

    // Outside the timed phase: the planned answers equal the unplanned
    // per-scenario sweep bit for bit (answers do not depend on the thread
    // count, so the reference may use every core).
    let reference = SolverRegistry::with_default_backends();
    for (g, answers) in first.iter().enumerate() {
        let Some(answers) = answers else { continue };
        for ((s, planned), naive) in grids[g]
            .iter()
            .zip(answers)
            .zip(reference.sweep_naive(&grids[g]))
        {
            let ok = naive.as_ref().is_ok_and(|n| same_bits(planned, n));
            report.check(ok, || {
                format!("grid {g} member {}: planned ≠ sweep_naive", s.name())
            });
        }
    }
    let labels: Vec<String> = (0..grids.len()).map(|g| format!("grid-{g}")).collect();
    size_class_guard(report, &labels, &per_grid, &first);
    Ok(())
}

// ---------------------------------------------------------------- http-fleet

/// `kibamrm-serve` flags of `http-fleet`: per-device quotas keyed by the
/// `x-device` header, refilling so slowly that no bucket regains a token
/// within a run.
fn fleet_server_args() -> Vec<String> {
    [
        "--quota-rate",
        "0.001",
        "--quota-burst",
        &inputs::QUOTA_BURST.to_string(),
        "--quota-key-header",
        "x-device",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Spawns the fleet server and warms its cache by querying every warm
/// configuration over one connection (one accept wait, not one per
/// query); returns the server and the set-up seconds.
fn fleet_setup(ctx: &Ctx, trace: &FleetTrace, i: usize) -> Result<(ServerProc, f64), String> {
    let started = Instant::now();
    let log = ctx.work_dir.join(format!("fleet-server-{i}.log"));
    let server = ServerProc::spawn(&ctx.serve_bin, &fleet_server_args(), &log)?;
    let mut conn = KeepAlive::connect(server.addr).map_err(|e| format!("warm-up connect: {e}"))?;
    for s in trace.warm() {
        let r = conn
            .post_query("warm", &inputs::envelope(s, false))
            .map_err(|e| format!("warm-up query: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm-up query answered {}", r.status));
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// What the replays of the fleet trace produced.
pub struct FleetRun {
    /// The last segment's server, still running.
    pub server: ServerProc,
    /// Latency (ms, from the due time) per class, over served requests.
    pub class_ms: BTreeMap<Class, Vec<f64>>,
    pub latencies_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    /// Timed phases and server CPU, summed over segments.
    pub wall: Duration,
    pub server_cpu_s: f64,
    /// Peak RSS (MiB) of each segment's server.
    pub peak_rss_mib: Vec<f64>,
    /// `/stats` of the last segment's server after its replay.
    pub stats_after: Json,
}

/// Replays `trace` open-loop once per segment, each time on a server set
/// up `setup_repeats` times, and checks every answer and every segment's
/// class counts. The in-process references are solved once, first.
pub fn run_fleet(
    ctx: &Ctx,
    report: &mut Report,
    trace: &FleetTrace,
    segments: usize,
    setup_repeats: usize,
) -> Result<FleetRun, String> {
    let registry = server_registry();
    let references: Vec<LifetimeDistribution> = trace
        .exact
        .iter()
        .map(|s| {
            registry
                .solve(s)
                .map_err(|e| format!("reference {}: {e}", s.name()))
        })
        .collect::<Result<_, _>>()?;
    let mut setups = Vec::new();
    let mut class_ms: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let (mut latencies_ms, mut late_ms, mut peak_rss_mib) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall, mut server_cpu_s) = (Duration::ZERO, 0.0);
    let mut last: Option<(ServerProc, Json)> = None;
    for segment in 0..segments {
        if let Some((previous, _)) = last.take() {
            previous.drain()?;
        }
        let mut server = None;
        for i in 0..setup_repeats {
            let (s, secs) = fleet_setup(ctx, trace, segment * setup_repeats + i)?;
            setups.push(secs);
            server = Some(s); // the previous server is killed on drop
        }
        let server = server.expect("at least one set-up");
        let stats_before = server.stats()?;
        let cpu0 = sys::cpu_seconds(Some(server.pid()))?;
        let addr = server.addr;
        let start = Instant::now();
        let outcomes = openloop::run(trace.requests.len(), inputs::FLEET_RATE, ctx.nproc, |i| {
            let r = &trace.requests[i];
            serve::post_fresh(addr, &r.device, &r.body)
        });
        wall += start.elapsed();
        server_cpu_s += sys::cpu_seconds(Some(server.pid()))? - cpu0;
        peak_rss_mib.push(sys::peak_rss_mib(Some(server.pid()))?);
        let stats_after = server.stats()?;

        let mut observed: BTreeMap<&str, usize> = BTreeMap::new();
        for (request, (timing, result)) in trace.requests.iter().zip(outcomes) {
            report.attempted += 1;
            late_ms.push(ms(timing.late));
            let outcome = match result {
                Ok(response) => check_fleet_answer(request, &response, &references),
                Err(e) => Err(format!("transport error: {e}")),
            };
            match outcome {
                Ok(label) => {
                    *observed.entry(label).or_default() += 1;
                    latencies_ms.push(ms(timing.latency));
                    class_ms
                        .entry(request.class)
                        .or_default()
                        .push(ms(timing.latency));
                }
                Err(problem) => report.fail(format!("{} request: {problem}", request.class.name())),
            }
        }
        check_fleet_counts(report, trace, &observed, &stats_before, &stats_after);
        last = Some((server, stats_after));
    }
    if !ctx.trace {
        report_setup(report, &setups);
    }
    let (server, stats_after) = last.expect("at least one segment");
    Ok(FleetRun {
        server,
        class_ms,
        latencies_ms,
        late_ms,
        wall,
        server_cpu_s,
        peak_rss_mib,
        stats_after,
    })
}

/// Checks one response against its class's contract; returns the outcome
/// label it counts under.
fn check_fleet_answer(
    request: &inputs::FleetRequest,
    response: &Response,
    references: &[LifetimeDistribution],
) -> Result<&'static str, String> {
    let expect_status = |want: u16| {
        if response.status == want {
            Ok(())
        } else {
            Err(format!("status {} (want {want})", response.status))
        }
    };
    match request.class {
        Class::Malformed => expect_status(400).map(|()| "400"),
        Class::Rogue if response.status == 429 => Ok("429"),
        Class::Hit | Class::Rogue | Class::FreshMiss | Class::WarmMiss => {
            expect_status(200)?;
            let served = Served::parse(&response.body)?;
            let reference = &references[request.expect.expect("exact classes carry a reference")];
            if served.degraded {
                return Err("degraded answer to an exact query".into());
            }
            if !served.matches(reference) {
                return Err("answer differs from the in-process solve".into());
            }
            Ok(match request.class {
                Class::FreshMiss | Class::WarmMiss => "miss",
                _ => "hit",
            })
        }
        Class::DegradedFamily | Class::DegradedSim => {
            expect_status(200)?;
            let served = Served::parse(&response.body)?;
            let bound = served.bound.unwrap_or(f64::NAN);
            if !(served.degraded && bound > 0.0 && bound < 1.0) {
                return Err(format!("degraded={} bound={bound}", served.degraded));
            }
            if request.class == Class::DegradedFamily {
                if served.kind.as_deref() != Some("cached-family") {
                    return Err(format!("source {:?} (want cached-family)", served.kind));
                }
                let family = &references[request.expect.expect("family requests name their curve")];
                if !served.matches(family) {
                    return Err("family answer is not the resident curve".into());
                }
                Ok("degraded_family")
            } else {
                if served.kind.as_deref() != Some("fast-simulation") {
                    return Err(format!("source {:?} (want fast-simulation)", served.kind));
                }
                if !served.points.iter().all(|&(_, p)| (0.0..=1.0).contains(&p)) {
                    return Err("simulated probability outside [0, 1]".into());
                }
                Ok("degraded_sim")
            }
        }
    }
}

/// Generator determinism: the outcome counts the client observed and the
/// server's ledgers moved by must equal the counts the seed planned.
fn check_fleet_counts(
    report: &mut Report,
    trace: &FleetTrace,
    observed: &BTreeMap<&str, usize>,
    before: &Json,
    after: &Json,
) {
    let n = |c| trace.count(c);
    let refused = n(Class::Rogue).saturating_sub(inputs::QUOTA_BURST);
    let planned: BTreeMap<&str, usize> = [
        ("hit", n(Class::Hit) + n(Class::Rogue) - refused),
        ("miss", n(Class::FreshMiss) + n(Class::WarmMiss)),
        ("degraded_family", n(Class::DegradedFamily)),
        ("degraded_sim", n(Class::DegradedSim)),
        ("400", n(Class::Malformed)),
        ("429", refused),
    ]
    .into_iter()
    .collect();
    println!("classes planned:  {planned:?}");
    println!("classes observed: {observed:?}");
    for (label, want) in &planned {
        let got = observed.get(label).copied().unwrap_or(0);
        report.check(got == *want, || {
            format!("class {label}: {got} observed, {want} planned")
        });
    }
    let delta = |section: &str, name: &str| {
        serve::stat(after, section, name) - serve::stat(before, section, name)
    };
    let misses =
        n(Class::FreshMiss) + n(Class::WarmMiss) + n(Class::DegradedFamily) + n(Class::DegradedSim);
    for (section, name, want) in [
        ("service", "hits", planned["hit"]),
        ("service", "misses", misses),
        ("service", "joined", 0),
        ("service", "shed", 0),
        (
            "service",
            "degraded_served",
            n(Class::DegradedFamily) + n(Class::DegradedSim),
        ),
        ("net", "quota_refused", refused),
        ("net", "rejected_bad_request", n(Class::Malformed)),
        // The request count plus the closing GET /stats itself.
        ("net", "accepted", trace.requests.len() + 1),
        ("net", "connections_shed", 0),
    ] {
        let got = delta(section, name);
        report.check(got == want as f64, || {
            format!("/stats {section}.{name} moved by {got}, want {want}")
        });
    }
}

pub fn http_fleet(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    if ctx.trace {
        return layers::trace_http_fleet(ctx, report);
    }
    let n =
        (inputs::FLEET_RATE * ctx.seconds.as_secs_f64() / HTTP_SEGMENTS as f64).round() as usize;
    let trace = inputs::fleet(ctx.seed, n);
    let run = run_fleet(ctx, report, &trace, HTTP_SEGMENTS, FLEET_SETUP_REPEATS)?;
    report.metric(
        "latency_p50_ms",
        summarise("latency (all classes)", &run.latencies_ms),
    );
    // The offered rate, unless requests fail or the senders saturate.
    report.metric(
        "throughput_ops",
        run.latencies_ms.len() as f64 / run.wall.as_secs_f64(),
    );
    report.metric(
        "cpu_ms_per_op",
        run.server_cpu_s * 1e3 / run.late_ms.len() as f64,
    );
    println!("peak_rss_mb per segment: {:?}", run.peak_rss_mib);
    report.metric("peak_rss_mb", stats::median(&run.peak_rss_mib));
    fleet_summary(report, &run);
    run.server.drain()?;
    Ok(())
}

/// Prints per-class latency and lateness, and applies the mode guard.
pub fn fleet_summary(report: &mut Report, run: &FleetRun) {
    let total: usize = run.class_ms.values().map(Vec::len).sum();
    let mut modes = Vec::new();
    for (class, v) in &run.class_ms {
        let p50 = summarise(&format!("class {}", class.name()), v);
        modes.push((
            class.name().to_string(),
            v.len() as f64 / total.max(1) as f64,
            p50,
        ));
    }
    summarise("generator lateness", &run.late_ms);
    mode_guard(report, &modes, &[50.0, 99.0], total);
}

// ------------------------------------------------------------ http-keepalive

/// What the closed-loop keep-alive segments produced.
pub struct KeepAliveRun {
    /// The last segment's server, still running.
    pub server: ServerProc,
    pub latencies_ms: Vec<f64>,
    /// Whether each request opened a new connection.
    pub reconnects: Vec<bool>,
    /// Gap between one request's completion and the next one's start.
    pub gaps_ms: Vec<f64>,
    /// Timed phases and server CPU, summed over segments.
    pub wall: Duration,
    pub server_cpu_s: f64,
    /// Peak RSS (MiB) of each segment's server.
    pub peak_rss_mib: Vec<f64>,
    /// `/stats` of the last segment's server after its loop.
    pub stats_after: Json,
}

/// Writes the resident snapshot (untimed: a previous server life) and
/// returns its path and the in-process references.
pub fn keepalive_snapshot(
    ctx: &Ctx,
    inputs: &inputs::KeepAliveInputs,
) -> Result<(PathBuf, Vec<LifetimeDistribution>), String> {
    let registry = server_registry();
    let references = inputs
        .configs
        .iter()
        .map(|s| registry.solve(s).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let service = LifetimeService::with_config(
        SolverRegistry::with_default_backends(),
        ServiceConfig::default(),
    );
    for s in &inputs.configs {
        service.query(s).map_err(|e| e.to_string())?;
    }
    let path = ctx.work_dir.join("keepalive.snapshot");
    service.save_snapshot(&path).map_err(|e| e.to_string())?;
    Ok((path, references))
}

/// Spawns the server on the resident snapshot (loaded before it prints
/// `listening`), then sends every request body once over one connection:
/// the first pass a restarted server's clients make. Returns the server
/// and the set-up seconds.
fn keepalive_setup(
    ctx: &Ctx,
    inputs: &inputs::KeepAliveInputs,
    snapshot: &Path,
    i: usize,
) -> Result<(ServerProc, f64), String> {
    let started = Instant::now();
    let args = vec!["--snapshot".to_string(), snapshot.display().to_string()];
    let log = ctx.work_dir.join(format!("keepalive-server-{i}.log"));
    let server = ServerProc::spawn(&ctx.serve_bin, &args, &log)?;
    let mut conn =
        KeepAlive::connect(server.addr).map_err(|e| format!("first-pass connect: {e}"))?;
    for (_, body) in &inputs.bodies {
        let r = conn
            .post_query("first-pass", body)
            .map_err(|e| format!("first-pass query: {e}"))?;
        if r.status != 200 || r.close {
            return Err(format!(
                "first-pass query answered {} (close: {})",
                r.status, r.close
            ));
        }
    }
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Runs the closed loop for `duration` split over `segments`, each on a
/// server set up `setup_repeats` times, and checks every answer.
pub fn run_keepalive(
    ctx: &Ctx,
    report: &mut Report,
    inputs: &inputs::KeepAliveInputs,
    duration: Duration,
    segments: usize,
    setup_repeats: usize,
) -> Result<KeepAliveRun, String> {
    let (snapshot, references) = keepalive_snapshot(ctx, inputs)?;
    let mut setups = Vec::new();
    let (mut latencies_ms, mut reconnects, mut gaps_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wall, mut server_cpu_s, mut peak_rss_mib) = (Duration::ZERO, 0.0, Vec::new());
    let mut last: Option<(ServerProc, Json)> = None;
    for segment in 0..segments {
        if let Some((previous, _)) = last.take() {
            // Its drain rewrites the snapshot with the same resident entries.
            previous.drain()?;
        }
        let mut server = None;
        for i in 0..setup_repeats {
            let (s, secs) = keepalive_setup(ctx, inputs, &snapshot, segment * setup_repeats + i)?;
            setups.push(secs);
            server = Some(s); // the previous server is killed on drop
        }
        let server = server.expect("at least one set-up");
        let loaded = serve::stat(&server.stats()?, "service", "snapshot_loaded");
        report.check(loaded == inputs.configs.len() as f64, || {
            format!(
                "server revived {loaded} snapshot entries, want {}",
                inputs.configs.len()
            )
        });

        let addr = server.addr;
        let cpu0 = sys::cpu_seconds(Some(server.pid()))?;
        let start = Instant::now();
        let deadline = start + duration / segments as u32;
        let per_thread: Vec<Result<ThreadRun, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..ctx.nproc)
                .map(|t| {
                    let references = &references;
                    let seed = ctx.seed.wrapping_add((segment * ctx.nproc) as u64);
                    scope.spawn(move || {
                        keepalive_thread(addr, inputs, references, seed, t, deadline)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("keep-alive client panicked".into()))
                })
                .collect()
        });
        wall += start.elapsed();
        server_cpu_s += sys::cpu_seconds(Some(server.pid()))? - cpu0;
        peak_rss_mib.push(sys::peak_rss_mib(Some(server.pid()))?);
        let stats_after = server.stats()?;
        for thread in per_thread {
            let thread = thread?;
            report.attempted += thread.attempted;
            for p in thread.problems {
                report.fail(p);
            }
            latencies_ms.extend(thread.latencies_ms);
            reconnects.extend(thread.reconnects);
            gaps_ms.extend(thread.gaps_ms);
        }
        last = Some((server, stats_after));
    }
    if !ctx.trace {
        report_setup(report, &setups);
    }
    let (server, stats_after) = last.expect("at least one segment");
    Ok(KeepAliveRun {
        server,
        latencies_ms,
        reconnects,
        gaps_ms,
        wall,
        server_cpu_s,
        peak_rss_mib,
        stats_after,
    })
}

#[derive(Default)]
struct ThreadRun {
    attempted: u64,
    problems: Vec<String>,
    latencies_ms: Vec<f64>,
    reconnects: Vec<bool>,
    gaps_ms: Vec<f64>,
}

fn keepalive_thread(
    addr: std::net::SocketAddr,
    inputs: &inputs::KeepAliveInputs,
    references: &[LifetimeDistribution],
    seed: u64,
    thread: usize,
    deadline: Instant,
) -> Result<ThreadRun, String> {
    let mut rng = inputs::Rng::new(seed.wrapping_mul(31).wrapping_add(thread as u64));
    let mut out = ThreadRun::default();
    // Answer bodies already checked bit for bit against the reference;
    // later answers must repeat them byte for byte.
    let mut verified: Vec<Option<Vec<u8>>> = vec![None; inputs.configs.len()];
    let mut conn: Option<KeepAlive> = None;
    let mut last_done: Option<Instant> = None;
    while Instant::now() < deadline {
        let (config, body) = &inputs.bodies[rng.below(inputs.bodies.len())];
        let t = Instant::now();
        if let Some(done) = last_done {
            out.gaps_ms.push(ms(t - done));
        }
        let reconnect = conn.is_none();
        let result = match conn.take() {
            Some(c) => Ok(c),
            None => KeepAlive::connect(addr),
        }
        .and_then(|mut c| c.post_query("keepalive", body).map(|r| (c, r)));
        let done = Instant::now();
        last_done = Some(done);
        out.attempted += 1;
        let (c, response) = match result {
            Ok(pair) => pair,
            Err(e) => {
                out.problems.push(format!("keep-alive request: {e}"));
                continue;
            }
        };
        if !response.close {
            conn = Some(c);
        }
        let ok = response.status == 200
            && match &verified[*config] {
                Some(expected) => *expected == response.body,
                None => {
                    let good = Served::parse(&response.body)
                        .is_ok_and(|s| !s.degraded && s.matches(&references[*config]));
                    if good {
                        verified[*config] = Some(response.body.clone());
                    }
                    good
                }
            };
        if !ok {
            out.problems.push(format!(
                "keep-alive answer for resident config {config}: status {} or bits differ",
                response.status
            ));
            continue;
        }
        out.latencies_ms.push(ms(done - t));
        out.reconnects.push(reconnect);
    }
    Ok(out)
}

pub fn http_keepalive(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let inputs = inputs::keepalive(ctx.seed);
    if ctx.trace {
        return layers::trace_http_keepalive(ctx, report, &inputs);
    }
    let run = run_keepalive(
        ctx,
        report,
        &inputs,
        ctx.seconds,
        HTTP_SEGMENTS,
        KEEPALIVE_SETUP_REPEATS,
    )?;
    report.metric("latency_p50_ms", summarise("latency", &run.latencies_ms));
    report.metric(
        "throughput_ops",
        run.latencies_ms.len() as f64 / run.wall.as_secs_f64(),
    );
    report.metric(
        "cpu_ms_per_op",
        run.server_cpu_s * 1e3 / run.latencies_ms.len().max(1) as f64,
    );
    println!("peak_rss_mb per segment: {:?}", run.peak_rss_mib);
    report.metric("peak_rss_mb", stats::median(&run.peak_rss_mib));
    keepalive_summary(report, &run);
    run.server.drain()?;
    Ok(())
}

/// Mode shares (kept-alive vs reconnecting requests) and the guard.
pub fn keepalive_summary(report: &mut Report, run: &KeepAliveRun) {
    let split = |reconnect: bool| -> Vec<f64> {
        run.latencies_ms
            .iter()
            .zip(&run.reconnects)
            .filter(|(_, &r)| r == reconnect)
            .map(|(&l, _)| l)
            .collect()
    };
    let n = run.latencies_ms.len();
    let mut modes = Vec::new();
    for (name, reconnect) in [("kept_alive", false), ("reconnect", true)] {
        let v = split(reconnect);
        if !v.is_empty() {
            let p50 = summarise(&format!("mode {name}"), &v);
            modes.push((name.to_string(), v.len() as f64 / n.max(1) as f64, p50));
        }
    }
    mode_guard(report, &modes, &[50.0, 99.0], n);
}
