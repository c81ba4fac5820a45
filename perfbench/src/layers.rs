//! Traced runs: every layer's public function timed from outside, on the
//! workload's own inputs, plus the tracing overhead and a closure check
//! per request class. Layer times are medians over repetitions; counts
//! are exact.
//!
//! Every traced run reports every per-layer metric. Layers a workload
//! does not itself cross are still timed on its inputs (an in-process
//! workload's answers are served once over HTTP, for instance), so each
//! value says what that layer would cost for this workload's scenarios.

use crate::inputs::{self, Class, KeepAliveInputs};
use crate::report::Report;
use crate::serve::{self, KeepAlive, ServerProc};
use crate::stats;
use crate::sys;
use crate::workloads::{self, ms, same_bits, server_registry, sup_distance};
use crate::Ctx;
use kibamrm::scenario::Scenario;
use kibamrm::service::{Answer, DegradedSource, LifetimeService, QueryOptions, ServiceConfig};
use kibamrm::sweep::SweepPlan;
use kibamrm::{DiscretisationSolver, LifetimeSolver, SimulationSolver, SolverRegistry};
use kibamrm_net::http::{read_request, HttpLimits};
use kibamrm_net::{json, Json, QuotaLedger};
use markov::foxglynn::poisson_weights;
use markov::transient::{CurveCache, TransientOptions};
use std::hint::black_box;
use std::time::{Duration, Instant};
use units::Charge;

/// Bytes a touched matrix entry moves in the transient kernel, as
/// computed (not measured): one stored `f64` coefficient plus one `f64`
/// read of the source vector.
const BYTES_PER_TOUCHED_ENTRY: f64 = 16.0;
/// Hits sent each way (fresh and kept-alive) by the accept-wait probe.
const ACCEPT_PROBE_PAIRS: usize = 40;
const ACCEPT_PROBE_SEED: u64 = 0xacce97;

/// Runs `f` at least `min` times and until `budget` is spent; returns
/// each run's milliseconds.
fn time_reps(min: usize, budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (start.elapsed() < budget && out.len() < 100_000) {
        let t = Instant::now();
        f();
        out.push(ms(t.elapsed()));
    }
    out
}

fn p50(v: &[f64]) -> f64 {
    stats::median(v)
}

/// Solver-side layer times kept for the closure checks.
struct SolverLayers {
    build_ms: f64,
    sweep_ms: f64,
}

/// Discretisation, transient sweep, Fox–Glynn and pool layers on
/// `primary`, and the planner on `grid` (rate-scale families) under the
/// workload's `registry`.
fn solver_layers(
    report: &mut Report,
    registry: &SolverRegistry,
    primary: &Scenario,
    grid: &[Scenario],
) -> Result<SolverLayers, String> {
    let solver = DiscretisationSolver::new();
    let err = |e: kibamrm::KibamRmError| e.to_string();
    let builds = time_reps(3, Duration::from_millis(300), || {
        black_box(solver.discretise(primary).ok());
    });
    let model = solver.discretise(primary).map_err(err)?;
    let st = model.stats();
    report.metric("core.discretise.build_ms", p50(&builds));
    report.metric("core.discretise.states", st.states as f64);
    report.metric("core.discretise.nnz", st.generator_nonzeros as f64);

    let cpu0 = sys::cpu_seconds(None)?;
    let wall0 = Instant::now();
    let mut curve = None;
    let sweeps = time_reps(2, Duration::from_millis(1000), || {
        curve = Some(model.empty_probability_curve(primary.times()));
    });
    let cpu_per_wall = (sys::cpu_seconds(None)? - cpu0) / wall0.elapsed().as_secs_f64();
    let curve = curve.expect("at least one sweep").map_err(err)?;
    let sweep_ms = p50(&sweeps);
    report.metric("markov.transient.sweep_ms", sweep_ms);
    report.metric("markov.transient.iterations", curve.iterations as f64);
    report.metric(
        "markov.transient.touched_entries",
        curve.touched_entries as f64,
    );
    report.metric(
        "markov.transient.entries_per_s",
        curve.touched_entries as f64 / (sweep_ms / 1e3),
    );
    report.metric(
        "markov.transient.bytes_moved_computed",
        curve.touched_entries as f64 * BYTES_PER_TOUCHED_ENTRY,
    );
    report.metric("markov.transient.window_deficit", curve.window_deficit);
    report.metric("markov.pool.cpu_per_wall", cpu_per_wall);

    // The Poisson window of the horizon, at the engine's Fox–Glynn share
    // of ε.
    let lambda = curve.nu * primary.horizon().as_seconds();
    let epsilon = TransientOptions::default().epsilon / 2.0;
    let mut right = 0;
    let weights = time_reps(5, Duration::from_millis(100), || {
        right = poisson_weights(lambda, epsilon).map_or(0, |w| w.right);
    });
    report.metric("markov.foxglynn.weights_ms", p50(&weights));
    report.metric("markov.foxglynn.right_point", right as f64);

    let mut plan = None;
    let plans = time_reps(5, Duration::from_millis(100), || {
        plan = Some(SweepPlan::build(registry, grid));
    });
    let plan = plan.expect("at least one plan");
    // Every traced grid holds rate-scale families, so the planner must
    // share work; a grid it cannot share would measure nothing here.
    report.attempted += 1;
    report.check(plan.groups().len() < plan.n_solved(), || {
        format!(
            "traced grid shares nothing: {} groups for {} solved members",
            plan.groups().len(),
            plan.n_solved()
        )
    });
    report.metric("core.sweep.plan_us", p50(&plans) * 1e3);
    report.metric("core.sweep.groups", plan.groups().len() as f64);
    report.metric("core.sweep.solved", plan.n_solved() as f64);
    // Medians of repeated sweeps where a grid is quick (the coarse serving
    // class), one sweep each where it is not.
    let (mut planned, mut naive) = (Vec::new(), Vec::new());
    let planned_ms = p50(&time_reps(1, Duration::from_millis(300), || {
        planned = registry.sweep(grid);
    }));
    let naive_ms = p50(&time_reps(1, Duration::from_millis(300), || {
        naive = registry.sweep_naive(grid);
    }));
    let mut iterations = 0usize;
    for ((s, p), n) in grid.iter().zip(&planned).zip(&naive) {
        report.attempted += 1;
        match (p, n) {
            (Ok(p), Ok(n)) if same_bits(p, n) => {
                iterations += p.diagnostics().iterations.unwrap_or(0);
            }
            _ => report.fail(format!(
                "traced sweep of {}: planned ≠ naive or failed",
                s.name()
            )),
        }
    }
    report.metric("core.sweep.iterations_sum", iterations as f64);
    report.metric("core.sweep.naive_ms", naive_ms);
    report.metric("core.sweep.share_gain", naive_ms / planned_ms);
    let mut solo = 0u64;
    for s in grid {
        let m = solver.discretise(s).map_err(err)?;
        solo += m
            .empty_probability_curve(s.times())
            .map_err(err)?
            .touched_entries;
    }
    report.metric("markov.transient.touched_entries_solo_sum", solo as f64);
    Ok(SolverLayers {
        build_ms: p50(&builds),
        sweep_ms,
    })
}

/// Service, scenario, snapshot, wire-format, quota and simulation layer
/// times kept for the closure checks (milliseconds).
struct ServiceLayers {
    hit: f64,
    miss: f64,
    degraded_family: f64,
    degraded_sim: f64,
    scenario_parse: f64,
    key: f64,
    http_parse: f64,
    json_parse: f64,
    encode: f64,
    quota: f64,
}

/// The in-process service's paths (`query_with`) and the layers every
/// request crosses, on the workload's scenarios. `misses` are fresh keys
/// with `primary` first; `sim` shares a family with nothing resident.
fn service_layers(
    ctx: &Ctx,
    report: &mut Report,
    primary: &Scenario,
    misses: &[Scenario],
    sim: &Scenario,
) -> Result<ServiceLayers, String> {
    let config = ServiceConfig::default();
    let fresh_service =
        || LifetimeService::with_config(SolverRegistry::with_default_backends(), config);
    let service = fresh_service();
    let mut miss_ms = Vec::new();
    for s in misses {
        let t = Instant::now();
        service.query(s).map_err(|e| format!("probe miss: {e}"))?;
        miss_ms.push(ms(t.elapsed()));
    }
    let relabelled = primary.with_name("probe-device");
    let mut answer = None;
    let hits = time_reps(200, Duration::from_millis(100), || {
        answer = service.query(&relabelled).ok();
    });
    let answer = answer.ok_or("probe hit failed")?;

    // Expired deadlines on finer-Δ variants of the resident curve: each
    // query is an uncached key that degrades to the cached family curve.
    // The Δ/2 variant (the first) is kept for the error-over-bound check.
    let expired = QueryOptions::new()
        .with_deadline(Duration::ZERO)
        .allow_degraded();
    let delta = primary.effective_delta().map_err(|e| e.to_string())?;
    let variants: Vec<Scenario> = inputs::sub_deltas(delta.as_amp_seconds())
        .into_iter()
        .map(|d| primary.with_delta(Charge::from_amp_seconds(d)))
        .collect();
    let mut family_answer = None;
    let mut next = 0;
    let family = time_reps(20, Duration::from_millis(100), || {
        let s = &variants[next % variants.len()];
        let answer = service.query_with(s, &expired);
        if next == 0 {
            family_answer = Some((s.clone(), answer));
        }
        next += 1;
    });
    let mut sim_answer = None;
    let sims = time_reps(2, Duration::from_millis(300), || {
        sim_answer = Some(service.query_with(sim, &expired));
    });
    report.metric("core.service.miss_ms", p50(&miss_ms));
    report.metric("core.service.hit_us", p50(&hits) * 1e3);
    report.metric("core.service.degraded_family_us", p50(&family) * 1e3);
    report.metric("core.service.degraded_sim_ms", p50(&sims));

    // Claimed bound against the exact answer, solved untimed.
    let registry = server_registry();
    let mut worst: f64 = 0.0;
    let degraded = [
        family_answer.map(|(s, a)| (s, a, "cached-family")),
        sim_answer.map(|a| (sim.clone(), a, "fast-simulation")),
    ];
    for (s, result, want) in degraded.into_iter().flatten() {
        report.attempted += 1;
        let (dist, bound, kind) = match result {
            Ok(Answer::Degraded {
                dist,
                bound,
                source,
            }) => {
                let kind = match source {
                    DegradedSource::CachedFamily { .. } => "cached-family",
                    DegradedSource::FastSimulation { .. } => "fast-simulation",
                };
                (dist, bound, kind)
            }
            Ok(Answer::Exact(_)) => {
                report.fail(format!(
                    "probe {want}: exact answer past an expired deadline"
                ));
                continue;
            }
            Err(e) => {
                // The grace budget cannot fit this workload's simulation:
                // a finding of the degraded tier, not a benchmark failure.
                println!("probe {want}: no degraded answer ({e})");
                continue;
            }
        };
        report.check(kind == want && bound > 0.0 && bound < 1.0, || {
            format!("probe {want}: source {kind}, bound {bound}")
        });
        let exact = registry.solve(&s).map_err(|e| e.to_string())?;
        let ratio = sup_distance(&dist.points_seconds(), &exact) / bound;
        println!("degraded {want}: sup|degraded − exact| / bound = {ratio:.4}");
        worst = worst.max(ratio);
    }
    report.metric("core.service.degraded_err_over_bound", worst);

    let text = relabelled.to_config_string().map_err(|e| e.to_string())?;
    let parses = time_reps(50, Duration::from_millis(50), || {
        black_box(Scenario::from_config_str(&text).ok());
    });
    let keys = time_reps(50, Duration::from_millis(50), || {
        black_box(relabelled.canonical_bytes().ok());
    });
    report.metric("core.scenario.parse_us", p50(&parses) * 1e3);
    report.metric("core.scenario.key_us", p50(&keys) * 1e3);

    let path = ctx.work_dir.join("probe.snapshot");
    let written = service.save_snapshot(&path).map_err(|e| e.to_string())?;
    let mut loaded = 0;
    let loads = time_reps(3, Duration::from_millis(200), || {
        loaded = fresh_service().load_snapshot(&path).loaded;
    });
    report.check(loaded == written.entries, || {
        format!(
            "snapshot probe revived {loaded} of {} entries",
            written.entries
        )
    });
    report.metric("core.snapshot.load_ms", p50(&loads));
    report.metric("core.snapshot.bytes", written.bytes as f64);

    let body = inputs::envelope(&relabelled, false);
    let mut wire = format!(
        "POST /query HTTP/1.1\r\nx-device: probe\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(&body);
    let limits = HttpLimits::default();
    let http = time_reps(100, Duration::from_millis(50), || {
        black_box(read_request(&mut &wire[..], &limits).ok());
    });
    let body_text = std::str::from_utf8(&body).expect("envelopes are UTF-8");
    let jsons = time_reps(100, Duration::from_millis(50), || {
        black_box(Json::parse(body_text).ok());
    });
    let points = answer.points_seconds();
    let mut out = String::with_capacity(points.len() * 48);
    let encodes = time_reps(100, Duration::from_millis(50), || {
        out.clear();
        for &(t, p) in &points {
            json::write_f64(&mut out, t);
            json::write_f64(&mut out, p);
        }
        black_box(out.len());
    });
    report.metric("net.http.parse_us", p50(&http) * 1e3);
    report.metric("net.json.parse_us", p50(&jsons) * 1e3);
    report.metric("net.json.encode_us", p50(&encodes) * 1e3);

    // Quota admission over a fleet of device keys, per call.
    const ADMITS: usize = 1000;
    let devices: Vec<String> = (0..64).map(|d| format!("id:dev-{d}")).collect();
    let mut ledger = QuotaLedger::new(0.001, inputs::QUOTA_BURST as f64);
    let admits = time_reps(20, Duration::from_millis(50), || {
        for i in 0..ADMITS {
            black_box(ledger.admit(&devices[i % devices.len()], Instant::now()));
        }
    });
    let admit_ns = p50(&admits) * 1e6 / ADMITS as f64;
    report.metric("net.quota.admit_ns", admit_ns);

    let fast = sim.with_simulation(config.degraded_runs, sim.sim_seed());
    let mcs = time_reps(1, Duration::from_millis(300), || {
        black_box(
            SimulationSolver::new()
                .solve_with(&fast, &config.options)
                .ok(),
        );
    });
    report.metric("sim.fast_mc_ms", p50(&mcs));

    Ok(ServiceLayers {
        hit: p50(&hits),
        miss: p50(&miss_ms),
        degraded_family: p50(&family),
        degraded_sim: p50(&sims),
        scenario_parse: p50(&parses),
        key: p50(&keys),
        http_parse: p50(&http),
        json_parse: p50(&jsons),
        encode: p50(&encodes),
        quota: admit_ns / 1e6,
    })
}

/// One `/query` hit over a fresh connection (the shipped client) or
/// `conn`, checked for 200; returns its milliseconds.
fn probe_hit(
    server: &ServerProc,
    conn: Option<&mut KeepAlive>,
    device: &str,
    body: &[u8],
) -> Result<f64, String> {
    let t = Instant::now();
    let r = match conn {
        None => serve::post_fresh(server.addr, device, body),
        Some(c) => c.post_query(device, body),
    }
    .map_err(|e| format!("probe hit: {e}"))?;
    let elapsed = ms(t.elapsed());
    if r.status != 200 {
        return Err(format!("probe hit answered {}", r.status));
    }
    Ok(elapsed)
}

/// The accept wait: a resident hit over fresh connections against the
/// same hit kept alive, alternating, each fresh request after a random
/// pause (0–20 ms, fixed seed) so arrivals fall at random phases of the
/// acceptor's poll, as the open loop's do. The kept-alive connection is
/// past its accept (one untimed hit first) and stays under the server's
/// per-connection cap (128). Returns (fresh p50, kept p50).
fn accept_probe(server: &ServerProc, body: &[u8]) -> Result<(f64, f64), String> {
    let mut rng = inputs::Rng::new(ACCEPT_PROBE_SEED);
    let (mut fresh, mut kept) = (Vec::new(), Vec::new());
    let mut conn = KeepAlive::connect(server.addr).map_err(|e| e.to_string())?;
    probe_hit(server, Some(&mut conn), "probe-connect", body)?;
    for i in 0..ACCEPT_PROBE_PAIRS {
        // Every probe request is its own device, inside every quota.
        let device = format!("accept-probe-{i}");
        std::thread::sleep(Duration::from_secs_f64(rng.range(0.0, 0.020)));
        fresh.push(probe_hit(server, None, &device, body)?);
        kept.push(probe_hit(server, Some(&mut conn), &device, body)?);
    }
    println!(
        "accept probe: fresh-connection hit p50 {:.4} ms, kept-alive hit p50 {:.4} ms (n={ACCEPT_PROBE_PAIRS} each)",
        p50(&fresh),
        p50(&kept)
    );
    Ok((p50(&fresh), p50(&kept)))
}

/// The HTTP workloads' traced replay runs the untraced client code
/// unchanged, and the layer probes are separate calls that never enter
/// its request path: its tracing overhead is zero by construction.
fn replay_overhead(report: &mut Report) {
    println!("tracing overhead: 0 (the replay carries no instrumentation; layer probes run apart from it)");
    report.metric("loadgen.tracing_overhead_frac", 0.0);
}

/// Ledger metrics from a `/stats` snapshot.
fn stats_layers(report: &mut Report, stats: &Json) {
    let s = |name| serve::stat(stats, "service", name);
    let n = |name| serve::stat(stats, "net", name);
    report.metric("core.service.hit_rate", s("hit_rate"));
    let warm = s("warm_hits") + s("warm_misses");
    report.metric(
        "core.service.warm_hit_rate",
        if warm > 0.0 {
            s("warm_hits") / warm
        } else {
            0.0
        },
    );
    for name in ["joined", "evictions", "shed"] {
        report.metric(&format!("core.service.{name}"), s(name));
    }
    for name in [
        "accepted",
        "connections_shed",
        "quota_refused",
        "rejected_bad_request",
    ] {
        report.metric(&format!("net.stats.{name}"), n(name));
    }
}

fn closure(class: &str, layers_ms: f64, e2e_ms: f64) {
    println!(
        "closure {class}: layers {layers_ms:.4} ms / end-to-end {e2e_ms:.4} ms = {:.3}",
        layers_ms / e2e_ms
    );
}

/// In-process workloads serve their primary answer once over HTTP: a
/// server, one miss, then the accept-wait and ledger probes.
fn http_leg(ctx: &Ctx, report: &mut Report, primary: &Scenario) -> Result<(), String> {
    let server = ServerProc::spawn(&ctx.serve_bin, &[], &ctx.work_dir.join("probe-server.log"))?;
    let body = inputs::envelope(primary, false);
    let r = serve::post_fresh(server.addr, "probe", &body).map_err(|e| e.to_string())?;
    report.check(r.status == 200, || {
        format!("probe miss over HTTP answered {}", r.status)
    });
    // Served by the shipped client, every answer opens a connection.
    let (fresh, kept) = accept_probe(&server, &body)?;
    report.metric("net.accept_wait_ms", fresh - kept);
    report.attempted += 2 * ACCEPT_PROBE_PAIRS as u64;
    stats_layers(report, &server.stats()?);
    server.drain()
}

/// Alternates untraced and traced executions of one operation until the
/// run's time is spent (at least `min` pairs); reports the overhead and
/// the closed loop's gap between operations. Returns the untraced and
/// layer-sum medians.
fn overhead_pairs(
    report: &mut Report,
    deadline: Instant,
    min: usize,
    mut untraced: impl FnMut() -> Result<(), String>,
    mut traced: impl FnMut() -> Result<f64, String>,
) -> Result<(f64, f64), String> {
    let (mut plain, mut with, mut sums, mut gaps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while plain.len() < min || Instant::now() < deadline {
        let t = Instant::now();
        if let Some(done) = last {
            gaps.push(ms(t - done));
        }
        untraced()?;
        let done = Instant::now();
        plain.push(ms(done - t));
        let t = Instant::now();
        gaps.push(ms(t - done));
        sums.push(traced()?);
        let done = Instant::now();
        with.push(ms(done - t));
        last = Some(done);
    }
    report.attempted += 2 * plain.len() as u64;
    println!("overhead pairs: {}", plain.len());
    report.metric(
        "loadgen.tracing_overhead_frac",
        p50(&with) / p50(&plain) - 1.0,
    );
    report.metric(
        "loadgen.late_p99_ms",
        stats::percentile(&stats::sorted(&gaps), 99.0),
    );
    Ok((p50(&plain), p50(&sums)))
}

// --------------------------------------------------------------- workloads

pub fn trace_solve_cold(ctx: &Ctx, report: &mut Report, pool: &[Scenario]) -> Result<(), String> {
    let deadline = Instant::now() + ctx.seconds;
    let primary = &pool[0];
    let solver = solver_layers(
        report,
        &server_registry(),
        primary,
        &inputs::family_grid(primary),
    )?;
    service_layers(ctx, report, primary, &pool[..1], &pool[2])?;
    http_leg(ctx, report, primary)?;
    let registry = SolverRegistry::with_default_backends();
    let discretiser = DiscretisationSolver::new();
    let (e2e, sum) = overhead_pairs(
        report,
        deadline,
        2,
        || registry.solve(primary).map(drop).map_err(|e| e.to_string()),
        || {
            let t = Instant::now();
            let model = discretiser.discretise(primary).map_err(|e| e.to_string())?;
            let build = ms(t.elapsed());
            let t = Instant::now();
            black_box(
                model
                    .empty_probability_curve(primary.times())
                    .map_err(|e| e.to_string())?,
            );
            Ok(build + ms(t.elapsed()))
        },
    )?;
    closure("solve (build + sweep)", sum, e2e);
    println!(
        "layer split: discretise {:.2} ms, transient sweep {:.2} ms",
        solver.build_ms, solver.sweep_ms
    );
    Ok(())
}

pub fn trace_sweep_family(
    ctx: &Ctx,
    report: &mut Report,
    grids: &[Vec<Scenario>],
) -> Result<(), String> {
    let deadline = Instant::now() + ctx.seconds;
    let grid = &grids[0];
    let primary = grid.last().expect("non-empty grid");
    let registry = SolverRegistry::with_default_backends().with_options(workloads::sweep_options());
    solver_layers(report, &registry, primary, grid)?;
    service_layers(
        ctx,
        report,
        primary,
        &[primary.clone(), grid[0].clone()],
        &grids[1][0],
    )?;
    http_leg(ctx, report, primary)?;
    let discretiser = DiscretisationSolver::new();
    let (e2e, sum) = overhead_pairs(
        report,
        deadline,
        2,
        || {
            black_box(registry.sweep(grid));
            Ok(())
        },
        || {
            // The planned path as separately timed layers: plan, then per
            // group one shared curve cache through every member.
            let t = Instant::now();
            let plan = SweepPlan::build(&registry, grid);
            let mut total = ms(t.elapsed());
            for group in plan.groups() {
                let mut cache = CurveCache::new();
                for &m in group.members() {
                    let s = &grid[m];
                    let t = Instant::now();
                    let model = discretiser.discretise(s).map_err(|e| e.to_string())?;
                    let mid = Instant::now();
                    black_box(
                        model
                            .empty_probability_curve_cached(s.times(), &mut cache)
                            .map_err(|e| e.to_string())?,
                    );
                    total += ms(mid - t) + ms(mid.elapsed());
                }
            }
            Ok(total)
        },
    )?;
    closure("grid (plan + member build + shared sweep)", sum, e2e);
    Ok(())
}

pub fn trace_http_fleet(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    // Half the run replays the trace (the ledgers and class latencies),
    // half probes the layers.
    let n = (inputs::FLEET_RATE * ctx.seconds.as_secs_f64() / 2.0).round() as usize;
    let trace = inputs::fleet(ctx.seed, n);
    let run = workloads::run_fleet(ctx, report, &trace, 1, 1)?;
    workloads::fleet_summary(report, &run);
    stats_layers(report, &run.stats_after);
    report.metric(
        "loadgen.late_p99_ms",
        stats::percentile(&stats::sorted(&run.late_ms), 99.0),
    );

    let primary = &trace.warm()[0];
    let misses: Vec<Scenario> = trace.exact[inputs::FLEET_WARM..]
        .iter()
        .take(3)
        .cloned()
        .collect();
    let mut probe_misses = vec![primary.clone()];
    probe_misses.extend(misses);
    solver_layers(
        report,
        &server_registry(),
        primary,
        &inputs::family_grid(primary),
    )?;
    let svc = service_layers(ctx, report, primary, &probe_misses, &trace.sim[0])?;

    // Every fleet request opens its own connection.
    let body = inputs::envelope(primary, false);
    let (fresh, kept) = accept_probe(&run.server, &body)?;
    let accept_wait = fresh - kept;
    report.metric("net.accept_wait_ms", accept_wait);
    replay_overhead(report);
    report.attempted += 2 * ACCEPT_PROBE_PAIRS as u64;

    // A warm-state miss in process: the warm configurations resident,
    // then their rate-scaled siblings.
    let service = LifetimeService::with_config(
        SolverRegistry::with_default_backends(),
        ServiceConfig::default(),
    );
    for s in trace.warm() {
        service.query(s).map_err(|e| e.to_string())?;
    }
    let mut warm_miss_ms = Vec::new();
    for r in trace
        .requests
        .iter()
        .filter(|r| r.class == Class::WarmMiss)
        .take(3)
    {
        let sibling = &trace.exact[r.expect.expect("exact classes carry a reference")];
        let t = Instant::now();
        service.query(sibling).map_err(|e| e.to_string())?;
        warm_miss_ms.push(ms(t.elapsed()));
    }

    let front = accept_wait + svc.http_parse + svc.quota;
    let parse = svc.json_parse + svc.scenario_parse + svc.key;
    for (class, layers) in [
        (Class::Hit, front + parse + svc.hit + svc.encode),
        (Class::FreshMiss, front + parse + svc.miss + svc.encode),
        (
            Class::WarmMiss,
            front + parse + p50(&warm_miss_ms) + svc.encode,
        ),
        (
            Class::DegradedFamily,
            front + parse + svc.degraded_family + svc.encode,
        ),
        (
            Class::DegradedSim,
            front + parse + svc.degraded_sim + svc.encode,
        ),
        (Class::Malformed, front + svc.json_parse),
        (Class::Rogue, front),
    ] {
        if let Some(v) = run.class_ms.get(&class) {
            closure(class.name(), layers, p50(v));
        }
    }
    run.server.drain()
}

pub fn trace_http_keepalive(
    ctx: &Ctx,
    report: &mut Report,
    inputs: &KeepAliveInputs,
) -> Result<(), String> {
    let run = workloads::run_keepalive(ctx, report, inputs, ctx.seconds / 2, 1, 1)?;
    workloads::keepalive_summary(report, &run);
    stats_layers(report, &run.stats_after);
    report.metric(
        "loadgen.late_p99_ms",
        stats::percentile(&stats::sorted(&run.gaps_ms), 99.0),
    );

    let primary = &inputs.configs[0];
    // A family no resident configuration shares: k below their band.
    let sim = inputs::fig8(
        "probe-sim",
        inputs::FLEET_FREQUENCY_HZ,
        0.5,
        3.0e-5,
        inputs::FLEET_DELTA_AS,
        inputs::FLEET_HORIZON_S,
        inputs::KEEPALIVE_POINTS,
    );
    solver_layers(
        report,
        &server_registry(),
        primary,
        &inputs::family_grid(primary),
    )?;
    let svc = service_layers(ctx, report, primary, &inputs.configs[..3], &sim)?;

    // Only the requests that reconnect (the server closes a connection
    // after its request cap) pay the accept wait.
    let body = &inputs.bodies[0].1;
    let (fresh, kept) = accept_probe(&run.server, body)?;
    let reconnecting =
        run.reconnects.iter().filter(|&&r| r).count() as f64 / run.reconnects.len().max(1) as f64;
    report.metric("net.accept_wait_ms", reconnecting * (fresh - kept));
    replay_overhead(report);
    report.attempted += 2 * ACCEPT_PROBE_PAIRS as u64;
    let e2e = p50(&run.latencies_ms);
    closure(
        "hit (http parse + json parse + scenario parse + key + service hit + encode)",
        svc.http_parse + svc.json_parse + svc.scenario_parse + svc.key + svc.hit + svc.encode,
        e2e,
    );
    run.server.drain()
}
