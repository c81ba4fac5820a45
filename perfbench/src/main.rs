//! The repository's benchmark: end-to-end workloads over the lifetime
//! solver, the resident service and the `kibamrm-serve` HTTP front, and a
//! traced mode that times each layer from outside.
//!
//! ```text
//! kibamrm-perfbench --workload <solve-cold|sweep-family|http-fleet|http-keepalive>
//!                   --seed <n> --seconds <s> --trace <0|1>
//!                   --serve-bin <path to kibamrm-serve> --work-dir <dir>
//! ```
//!
//! `run.sh` builds both binaries and supplies the last two flags. See
//! README.md for the workloads, the metrics and why they were chosen.

#![forbid(unsafe_code)]

mod inputs;
mod layers;
mod openloop;
mod report;
mod serve;
mod stats;
mod sys;
mod workloads;

use report::Report;
use std::path::PathBuf;
use std::time::Duration;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub work_dir: PathBuf,
    pub nproc: usize,
}

const WORKLOADS: [&str; 4] = ["solve-cold", "sweep-family", "http-fleet", "http-keepalive"];

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut work_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => trace = Some(number(&value)? != 0),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok((
        workload,
        Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds),
            trace: trace.ok_or("--trace is required")?,
            serve_bin: serve_bin.ok_or("--serve-bin is required")?,
            work_dir: work_dir.ok_or("--work-dir is required")?,
            nproc: sys::nproc(),
        },
    ))
}

fn main() {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("kibamrm-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("kibamrm-perfbench: {}: {e}", ctx.work_dir.display());
        std::process::exit(2);
    }
    let root = std::env::current_dir().unwrap_or_default();
    let load_start = sys::load_average();
    let mut report = Report::default();
    let outcome = match workload.as_str() {
        "solve-cold" => workloads::solve_cold(&ctx, &mut report),
        "sweep-family" => workloads::sweep_family(&ctx, &mut report),
        "http-fleet" => workloads::http_fleet(&ctx, &mut report),
        _ => workloads::http_keepalive(&ctx, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("kibamrm-perfbench: {workload}: {e}");
        std::process::exit(1);
    }
    println!(
        "stamp: workload={workload} seed={} seconds={} trace={} nproc={} commit={} source_fnv={:016x} loadavg_start={:?} loadavg_end={:?}",
        ctx.seed,
        ctx.seconds.as_secs(),
        u8::from(ctx.trace),
        ctx.nproc,
        sys::commit(&root),
        sys::source_digest(&root),
        load_start,
        sys::load_average(),
    );
    let expected = if ctx.trace {
        &report::PER_LAYER[..]
    } else {
        &report::END_TO_END[..]
    };
    println!("{}", report.finish(expected));
}
