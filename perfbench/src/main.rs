//! One benchmark for the eco plugin's submit path, the facility
//! scheduler and the adaptation loop. See `README.md` beside this
//! crate for the workloads, metrics and findings.
//!
//! ```text
//! perfbench --workload submit|facility|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output is the result with
//! every end-to-end metric; with `--trace 1` it carries the per-layer
//! metrics of a traced run instead. The exit code is non-zero when any
//! output check failed.

mod deploy;
mod gen;
mod pace;
mod pin;
mod report;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::Metrics;
use trace::{Layer, Tracer};
use workload::{Kind, Measured};

/// Deployments built per untraced run, five before the measured phase
/// and four after it; `setup_s` is the median of the quicker-paced half
/// (see `pace`).
const SETUPS: usize = 9;

/// A prediction this slow waited out the client's 5 ms batch-queue
/// timeout: it found the client's mutex held and was never woken.
const STALL: std::time::Duration = std::time::Duration::from_millis(4);

struct Args {
    name: String,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let kind = Kind::parse(name).ok_or(format!("unknown workload '{name}' (submit, facility or churn)"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace '{other}' (0 or 1)")),
    };
    Ok(Args { name: name.to_string(), kind, seed, seconds, trace })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every end-to-end metric of one untraced run. The timings are read
/// over the measured windows run at the host's quickest pace (see
/// `pace`); the rest over the whole run.
fn end_to_end(m: &mut Measured) -> Metrics {
    let mut out = Metrics::default();
    let quick = pace::quickest(&m.windows);
    let mut sbatch = pace::pick(&m.sbatch, quick.iter().map(|w| w.sbatch.clone()));
    let mut ticks = pace::pick(&m.ticks, quick.iter().map(|w| w.ticks.clone()));
    let quick_wall: Duration = quick.iter().map(|w| w.wall).sum();
    let pace_ms = |ws: &[&pace::Window]| median(ws.iter().map(|w| w.pace.as_secs_f64() * 1e3).collect());
    eprintln!(
        "windows: {} kept of {}; reference kernel median {:.3} ms around the kept windows, {:.3} ms around all",
        quick.len(),
        m.windows.len(),
        pace_ms(&quick),
        pace_ms(&m.windows.iter().collect::<Vec<_>>()),
    );
    let (p_submit, submit_p99) = sbatch.p99_us();
    let (p_tick, tick_p99) = ticks.p99_us();
    let p_outcome = m.outcomes.p99_us().0;
    eprintln!(
        "samples kept: {} sbatch (tail p{p_submit}), {} ticks (tail p{p_tick}); {} outcome reports (tail p{p_outcome}), {} completed jobs, {:.4} opted-in completions per tick",
        sbatch.len(),
        ticks.len(),
        m.outcomes.len(),
        m.completed,
        ratio(m.completed_opted_in as f64, m.ticks.len() as f64),
    );
    for (name, s) in [("sbatch", &mut sbatch), ("tick", &mut ticks), ("outcome", &mut m.outcomes)] {
        let q: Vec<String> = [50.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9]
            .iter()
            .map(|&p| format!("p{p}={:.1}", s.percentile_us(p)))
            .collect();
        eprintln!("{name} us: {}", q.join(" "));
    }
    out.put("submit_p50_us", sbatch.p50_us(), "us");
    out.put("submit_p99_us", submit_p99, "us");
    out.put("submit_per_s", ratio(sbatch.len() as f64, sbatch.total_ns() as f64 / 1e9), "1/s");
    out.put("submit_ok_ratio", m.tally.ok_ratio(), "ratio");
    out.put("tick_p50_us", ticks.p50_us(), "us");
    out.put("tick_p99_us", tick_p99, "us");
    out.put("ticks_per_s", ratio(ticks.len() as f64, quick_wall.as_secs_f64()), "1/s");
    out.put("gflops_per_w", ratio(m.gflop, m.energy_j), "GFLOP/J");
    out.put("mean_wait_s", ratio(m.wait_s, m.completed as f64), "sim_s");
    out.put("setup_s", median(m.setup_s.clone()), "s");
    out.put("peak_rss_mb", peak_rss_mb(), "MiB");
    out
}

/// Every per-layer metric of one traced run, and whether the run did
/// what its workload is for.
fn per_layer(
    kind: Kind,
    m: &mut Measured,
    layers: &mut BTreeMap<&'static str, Layer>,
    untraced_p50: f64,
) -> (Metrics, bool) {
    let mut out = Metrics::default();
    let c = |name: &str| m.counters.get(name).copied().unwrap_or(0.0);
    let mut layer = |name: &'static str| layers.remove(name).unwrap_or_default();
    let ticks = m.ticks.len() as f64;
    let wall_ns = m.wall.as_nanos() as f64;

    let mut sbatch = layer("slurm.sbatch");
    out.put("slurm.sbatch_self_us.p50", sbatch.self_time.p50_us(), "us");
    out.put("slurm.sbatch_self_us.p99", sbatch.self_time.p99_us().1, "us");
    out.put("slurm.pending_depth", ratio(m.depth_sum as f64, ticks), "jobs");
    for name in ["dispatched", "backfilled", "packed", "power_blocked", "head_blocked"] {
        let counter = format!("slurm.sched_{name}");
        out.put(&counter, ratio(c(&counter), ticks), "1/tick");
    }
    out.put("slurm.tick_share", ratio(m.ticks.total_ns() as f64, wall_ns), "ratio");
    out.put("slurm.opted_in_completions_per_tick", ratio(m.completed_opted_in as f64, ticks), "1/tick");

    let mut plugin = layer("plugin.job_submit");
    let mut settings = layer("plugin.settings_load");
    out.put("plugin.job_submit_us.p50", plugin.total.p50_us(), "us");
    out.put("plugin.job_submit_us.p99", plugin.total.p99_us().1, "us");
    out.put("plugin.self_us.p50", plugin.self_time.p50_us(), "us");
    out.put("plugin.settings_load_us.p50", settings.total.p50_us(), "us");
    out.put(
        "plugin.settings_loads_per_submit",
        ratio(settings.total.len() as f64, plugin.total.len() as f64),
        "ratio",
    );
    for name in ["applied", "skipped", "errors"] {
        let counter = format!("plugin.{name}");
        out.put(&counter, c(&counter), "count");
    }

    let mut predict = layer("client.predict");
    let mut outcome = layer("client.outcome");
    let service_p50 = c("daemon.service_us.p50");
    out.put("client.predict_us.p50", predict.total.p50_us(), "us");
    out.put("client.predict_us.p99", predict.total.p99_us().1, "us");
    out.put("client.predict_over_4ms", predict.total.count_over(STALL), "count");
    out.put("client.outcome_us.p50", outcome.total.p50_us(), "us");
    out.put("client.outcome_us.p99", outcome.total.p99_us().1, "us");
    for name in ["requests", "attempts", "retries", "busy", "errors"] {
        let counter = format!("client.{name}");
        out.put(&counter, c(&counter), "count");
    }
    out.put("client.retry_ratio", ratio(c("client.attempts"), c("client.requests")), "ratio");
    out.put("transport.rtt_us", (predict.total.p50_us() - service_p50).max(0.0), "us");
    out.put("transport.shm_predict_us.p50", m.shm_predict.p50_us(), "us");
    out.put("transport.shm_predict_us.p99", m.shm_predict.p99_us().1, "us");

    out.put("daemon.service_us.p50", service_p50, "us");
    out.put("daemon.service_us.p99", c("daemon.service_us.p99"), "us");
    out.put("daemon.busy_rejections", c("daemon.busy_rejections"), "count");
    out.put("daemon.errors", c("daemon.errors"), "count");

    out.put("registry.hit_ratio", ratio(c("daemon.cache_hits"), c("daemon.predictions")), "ratio");
    out.put("registry.evictions", c("registry.evictions"), "count");
    out.put("registry.resident", c("registry.resident"), "count");
    out.put("registry.stale_hits", c("registry.stale_hits"), "count");

    let mut lookup = layer("backend.lookup");
    let mut load = layer("backend.load");
    out.put("backend.lookup_us.p50", lookup.total.p50_us(), "us");
    out.put("backend.lookup_us.p99", lookup.total.p99_us().1, "us");
    out.put("backend.lookups", lookup.total.len() as f64, "count");
    out.put("backend.fail_ratio", ratio(lookup.failed as f64, lookup.total.len() as f64), "ratio");
    out.put("backend.load_us", load.total.p50_us(), "us");

    out.put("adapt.outcomes_accepted", c("adapt.outcomes_accepted"), "count");
    out.put("adapt.drift_trips", c("adapt.drift_trips"), "count");
    out.put("adapt.refit_ms", m.refits.p50_us() / 1e3, "ms");
    out.put("store.commit_ms", m.commits.p50_us() / 1e3, "ms");
    out.put("store.catchup_ms", m.boot_s * 1e3, "ms");
    out.put("rollout.preload_ms", m.preloads.p50_us() / 1e3, "ms");
    out.put("rollout_ms", m.rollouts.p50_us() / 1e3, "ms");
    out.put("outcome_p99_us", m.outcomes.p99_us().1, "us");
    out.put("rollouts", m.rollouts.len() as f64, "count");

    out.put("trace.overhead", ratio(m.sbatch.p50_us(), untraced_p50), "ratio");
    out.put("gen.lateness_p99_us", m.lateness.p99_us().1, "us");

    // the workload's premise, from its own counters
    let premise = match kind {
        Kind::Submit => {
            c("daemon.cache_hits") == c("daemon.predictions")
                && lookup.total.len() == 0
                && c("registry.evictions") == 0.0
                && m.shm_predict.len() > 0
                && m.shm_failovers == 0
        }
        Kind::Churn => c("registry.evictions") > 0.0 && lookup.total.len() > 0,
        Kind::Facility => {
            // the ticks take more of the measured wall time than the
            // submissions and than everything else
            let (tick_ns, sbatch_ns) = (m.ticks.total_ns() as f64, m.sbatch.total_ns() as f64);
            tick_ns > sbatch_ns && tick_ns > wall_ns - tick_ns - sbatch_ns
        }
    };
    if !premise {
        eprintln!("the {kind:?} workload's premise does not hold (see README, Traced run premises)");
    }
    (out, premise)
}

/// Every opted-in job left unrewritten must be one the plugin counted
/// as an error; an unrewritten job it did not count is a wrong output.
/// (The plugin may count more errors than that: a failed settings read
/// errors a job that did not opt in, whose output is still right.)
fn reconcile(m: &mut Measured) {
    let errors = m.counters.get("plugin.errors").copied().unwrap_or(0.0) as u64;
    if m.tally.unrewritten > errors {
        eprintln!("{} opted-in jobs unrewritten but the plugin counted only {errors} errors", m.tally.unrewritten);
        m.tally.mismatches += m.tally.unrewritten - errors;
    }
    if m.digest_mismatches > 0 {
        eprintln!("facility replays disagree: digests {:x?}", m.digests);
    } else if let Some(d) = m.digests.first() {
        eprintln!("facility accounting digest {d:016x} over {} replay(s)", m.digests.len());
    }
}

/// A scratch directory for this run inside the working directory,
/// removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn new() -> Result<RunDir, String> {
        let dir = Path::new(".perfbench").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let dir = dir.canonicalize().map_err(|e| e.to_string())?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let dir = RunDir::new()?;
    if !args.trace {
        let mut m = workload::run(args.kind, args.seed, args.seconds, SETUPS, &dir.0, None)?;
        reconcile(&mut m);
        let metrics = end_to_end(&mut m);
        return Ok((m.correct(), m.attempted(), m.failed(), metrics));
    }
    // a third of the time untraced, for the overhead figure, then traced
    let mut bare = workload::run(args.kind, args.seed, args.seconds / 3.0, 1, &dir.0.join("bare"), None)?;
    reconcile(&mut bare);
    let tracer = Tracer::new();
    let mut m = workload::run(
        args.kind,
        args.seed,
        args.seconds * 2.0 / 3.0,
        1,
        &dir.0.join("traced"),
        Some(tracer.clone()),
    )?;
    reconcile(&mut m);
    let mut layers = tracer.take_layers();
    let (metrics, premise) = per_layer(args.kind, &mut m, &mut layers, bare.sbatch.p50_us());
    let path = Path::new(".perfbench").join("traces").join(format!("{}-seed{}.spans.csv", args.name, args.seed));
    match tracer.write(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    // a premise that does not hold fails the run as one more check
    let correct = bare.correct() && m.correct() && premise;
    let failed = bare.failed() + m.failed() + u64::from(!premise);
    Ok((correct, bare.attempted() + m.attempted() + 1, failed, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload submit|facility|churn --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    pin::to_one_cpu();
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            // a run that attempted nothing checked nothing
            let correct = correct && attempted > 0;
            for (name, value, unit) in metrics.iter() {
                println!("{name:<36} {value:>14.4} {unit}");
            }
            println!("{}", report::render(correct, attempted, failed, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: output check failed ({failed} of {attempted} operations failed)");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
