//! The three workloads. Each builds its deployment (timed as set-up),
//! warms it, then drives the product through `Cluster::sbatch` and
//! `Cluster::advance` for the measured time, checking every job it
//! submits against the model the store serves for the job's key.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chronus::remote::{
    CallOptions, ObservedOutcome, PredictClient, PredictionSource, RemotePrediction, StatsSnapshot,
};
use chronus::telemetry::Telemetry;
use chronusd::adapt::refit_blob;
use chronusd::campaign::roll_into;
use eco_hpcg::workload::Workload;
use eco_sim_node::clock::SimDuration;
use eco_sim_node::cpu::CpuConfig;
use eco_slurm_sim::{Cluster, JobId, JobState};

use crate::deploy::{self, Catalog, Deployment, KeyInfo, Served};
use crate::gen::{JobSpec, JobStream, Mix, Rng};
use crate::pace::{self, Window, Windows};
use crate::pin;
use crate::stats::{open_loop_timing, Samples, Tally};
use crate::trace::Tracer;

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Submit,
    Facility,
    Churn,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "submit" => Some(Kind::Submit),
            "facility" => Some(Kind::Facility),
            "churn" => Some(Kind::Churn),
            _ => None,
        }
    }
}

/// Everything one measured segment produced.
#[derive(Default)]
pub struct Measured {
    pub sbatch: Samples,
    pub ticks: Samples,
    pub outcomes: Samples,
    pub lateness: Samples,
    pub rollouts: Samples,
    pub refits: Samples,
    pub commits: Samples,
    pub preloads: Samples,
    /// Submissions of the measured phase.
    pub tally: Tally,
    /// Operations outside the measured phase (warm-up, facility fill)
    /// that were attempted, and those of them that failed.
    pub setup_attempted: u64,
    pub setup_failed: u64,
    pub outcomes_sent: u64,
    pub outcomes_failed: u64,
    pub rollouts_failed: u64,
    pub gflop: f64,
    pub energy_j: f64,
    pub wait_s: f64,
    pub completed: u64,
    pub completed_opted_in: u64,
    pub depth_sum: u64,
    /// Wall time of the measured phase: the sum of its windows'.
    pub wall: Duration,
    /// The measured phase cut into windows (see `pace`).
    pub windows: Vec<Window>,
    /// Set-up times of the quicker-paced half of the set-ups.
    pub setup_s: Vec<f64>,
    pub boot_s: f64,
    /// Facility replays whose accounting digest differed from the first.
    pub digest_mismatches: u64,
    pub digests: Vec<u64>,
    /// Counter deltas over the measured phase, by name.
    pub counters: BTreeMap<String, f64>,
    /// The traced `submit` run's shared-memory leg: timed predictions,
    /// calls made and failed (warm-up included), and the times its
    /// client left the ring for TCP.
    pub shm_predict: Samples,
    pub shm_calls: u64,
    pub shm_failed: u64,
    pub shm_failovers: u64,
}

impl Measured {
    pub fn failed(&self) -> u64 {
        self.tally.failed() + self.setup_failed + self.outcomes_failed + self.rollouts_failed + self.shm_failed
    }

    pub fn attempted(&self) -> u64 {
        self.tally.attempted + self.setup_attempted + self.outcomes_sent + self.shm_calls
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.digest_mismatches == 0
    }
}

/// Sizes of one workload.
struct Shape {
    binaries: usize,
    runtime_s: (f64, f64),
    per_class: [usize; 2],
    capped: bool,
    mix: Mix,
}

fn shape(kind: Kind) -> Shape {
    match kind {
        // 2 classes x 6 applications = 12 keys, all resident: both classes
        // of an application share a registry shard (8 models each), so
        // this holds unless 5 of the 6 land in one shard (checked for
        // seeds 1-10 and 9001 in `deploy::tests`)
        Kind::Submit => Shape {
            binaries: 6,
            runtime_s: (5.0, 15.0),
            per_class: [16, 16],
            capped: false,
            mix: Mix { opt_in_of_10: 8, nodes: [1, 0, 0, 0] },
        },
        // 2 classes x 64 applications = 128 keys, twice the registry
        Kind::Churn => Shape {
            binaries: 64,
            runtime_s: (5.0, 15.0),
            per_class: [16, 16],
            capped: false,
            mix: Mix { opt_in_of_10: 8, nodes: [1, 0, 0, 0] },
        },
        Kind::Facility => Shape {
            binaries: 8,
            runtime_s: (10.0, 40.0),
            per_class: [16, 16],
            capped: true,
            mix: Mix { opt_in_of_10: 8, nodes: [6, 2, 1, 1] },
        },
    }
}

/// Jobs per submit round before the cluster is drained: twice the
/// nodes of the `submit` and `churn` clusters, so the queue stays
/// shallow (one job waits per node) and the first calls after a drain
/// are too few to reach the p99.
const ROUND: usize = 64;
/// Submissions a cluster takes before it is replaced, which bounds the
/// job table and accounting records it keeps.
const CLUSTER_JOBS: usize = 20_000;
/// Warm-up submissions (untimed) on `submit` and `churn`.
const WARMUP_JOBS: usize = 512;
/// Facility: jobs outstanding (pending + running) at every tick.
const FACILITY_OUTSTANDING: usize = 250;
/// Facility: untimed ticks before the measured phase.
const FACILITY_WARMUP_TICKS: u64 = 600;
/// Facility: measured ticks per replay.
const FACILITY_TICKS: u64 = 3600;
/// Facility: measured ticks per block (see `pace`); a replay is 24.
const FACILITY_BLOCK: u64 = 150;
/// Facility: seconds of `--seconds` per replay (one replay took 4–8 s
/// on the reference VM). The replay count follows from `--seconds`
/// alone, so the work done, and the memory it takes, does not depend on
/// how fast the host runs.
const FACILITY_REPLAY_S: f64 = 7.5;
/// Churn: opted-in jobs the `facility` workload's 32 nodes complete per
/// simulated second — its traced run reports this figure as
/// `slurm.opted_in_completions_per_tick` (median over seeds 1–10).
const FACILITY_REPORTS_PER_S: f64 = 0.9815;
/// Churn: the facility scaled from 32 to 1 024 nodes behind the one
/// head node, every completed opted-in job reporting its outcome once.
const FACILITY_SCALE: f64 = 32.0;
/// Churn: outcome reports per second of the open-loop feed.
const OUTCOME_RATE: f64 = FACILITY_REPORTS_PER_S * FACILITY_SCALE;
/// Churn: keys whose reported efficiency drifts.
const DRIFT_KEYS: usize = 2;
/// Churn: share of reports that go to the drifting keys, which sets how
/// often a drift trips and a re-fit rolls out.
const DRIFT_SHARE: f64 = 0.8;
/// Efficiency the drifting keys report, relative to the calibration.
const DRIFT_FACTOR: f64 = 0.7;
/// Observations per drift window (the daemon's default detector).
const DRIFT_WINDOW: u32 = 16;
/// Traced `submit`: predictions before the shared-memory leg is timed,
/// and how long it is timed.
const SHM_WARMUP_CALLS: usize = 1_000;
const SHM_SECONDS: f64 = 1.0;

/// One cluster plus what the benchmark knows about its jobs.
struct Sim {
    cluster: Cluster,
    jobs: HashMap<JobId, JobSpec>,
    seen: usize,
    submitted: usize,
}

impl Sim {
    fn new(cluster: Cluster) -> Sim {
        Sim { cluster, jobs: HashMap::new(), seen: 0, submitted: 0 }
    }

    /// Submits one script and checks the job the cluster recorded.
    /// Returns the call's wall time.
    fn submit(&mut self, env: &Env, job: &JobSpec, tally: &mut Tally) -> Duration {
        let key = env.catalog.key_of(job.class, job.binary);
        let t0 = Instant::now();
        let result = match &env.dep.tracer {
            Some(t) => t.span(
                "slurm.sbatch",
                |r: &Result<JobId, _>| r.is_ok(),
                || self.cluster.sbatch(&job.script, job.user),
            ),
            None => self.cluster.sbatch(&job.script, job.user),
        };
        let t1 = Instant::now();
        self.submitted += 1;
        tally.attempted += 1;
        match result {
            Err(e) => {
                tally.errors += 1;
                if tally.errors <= 3 {
                    eprintln!("sbatch failed: {e}");
                }
            }
            Ok(id) => {
                let desc = &self.cluster.job(id).expect("a submitted job is tracked").descriptor;
                let rewritten = desc.max_frequency_khz.map(|f| CpuConfig {
                    cores: desc.num_tasks,
                    frequency_khz: f,
                    threads_per_core: desc.threads_per_cpu,
                });
                let verdict = match (job.opted_in, rewritten) {
                    (false, None) if desc.num_tasks == job.ntasks && desc.threads_per_cpu == 1 => Ok(()),
                    (false, _) => Err("touched a job that did not opt in".to_string()),
                    (true, None) => {
                        tally.unrewritten += 1;
                        Ok(())
                    }
                    (true, Some(config)) if desc.min_frequency_khz != desc.max_frequency_khz => {
                        Err(format!("rewrote to an uneven frequency range around {config}"))
                    }
                    (true, Some(config)) if env.dep.truth.accepts(key, &config, t0, t1) => Ok(()),
                    (true, Some(config)) => Err(format!("rewrote to {config}, which the store never served")),
                };
                if let Err(why) = verdict {
                    tally.mismatches += 1;
                    if tally.mismatches <= 3 {
                        eprintln!("job {id} ({}): {why}", job.script.lines().nth(1).unwrap_or(""));
                    }
                }
                self.jobs.insert(id, job.clone());
            }
        }
        t1 - t0
    }

    fn tick(&mut self) -> Duration {
        let t = Instant::now();
        self.cluster.advance(SimDuration::from_secs(1));
        t.elapsed()
    }

    /// Jobs still pending. The job table holds exactly the jobs not yet
    /// seen in accounting, so this walks only the outstanding ones.
    fn pending(&self) -> u64 {
        self.jobs.keys().filter(|id| self.cluster.job(**id).is_ok_and(|j| j.state == JobState::Pending)).count()
            as u64
    }

    /// Folds the jobs completed since the last call into the efficiency
    /// and wait sums of `m` (when given), forgetting them either way.
    fn completions(&mut self, env: &Env, m: Option<&mut Measured>) {
        let records = self.cluster.accounting().records();
        let mut sums = (0.0, 0.0, 0.0, 0u64, 0u64);
        for r in &records[self.seen..] {
            let (Some(job), Some(start)) = (self.jobs.remove(&r.id), r.start_time) else { continue };
            if r.state == JobState::Completed {
                sums.0 += env.catalog.binaries[job.binary].workload.total_gflop();
                sums.1 += r.system_energy_j;
                sums.2 += (start - r.submit_time).as_secs_f64();
                sums.3 += 1;
                sums.4 += u64::from(job.opted_in);
            }
        }
        self.seen = records.len();
        if let Some(m) = m {
            m.gflop += sums.0;
            m.energy_j += sums.1;
            m.wait_s += sums.2;
            m.completed += sums.3;
            m.completed_opted_in += sums.4;
        }
    }
}

/// What a segment runs against.
struct Env {
    catalog: Catalog,
    dep: Deployment,
    shape: Shape,
}

impl Env {
    fn sim(&self) -> Sim {
        Sim::new(self.dep.cluster(&self.catalog, &self.shape.per_class, self.shape.capped))
    }
}

/// Counters read before and after the measured phase.
fn counters(env: &Env) -> BTreeMap<String, f64> {
    let mut c: BTreeMap<String, f64> =
        env.dep.telemetry.counters_snapshot().into_iter().map(|(k, v)| (k, v as f64)).collect();
    let s: StatsSnapshot = env.dep.server.snapshot();
    for (name, v) in [
        ("daemon.predictions", s.predictions),
        ("daemon.cache_hits", s.cache_hits),
        ("daemon.cache_misses", s.cache_misses),
        ("daemon.busy_rejections", s.busy_rejections),
        ("daemon.errors", s.errors),
        ("daemon.deadline_exceeded", s.deadline_exceeded),
        ("registry.evictions", s.evictions),
        ("registry.stale_hits", s.stale_generation_hits),
        ("adapt.outcomes_accepted", s.outcomes_ingested),
        ("adapt.drift_trips", s.drift_trips),
    ] {
        c.insert(name.to_string(), v as f64);
    }
    c
}

fn deltas(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    after.iter().map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0))).collect()
}

/// Builds and warms a workload's deployment; the time it takes is one
/// set-up sample.
fn prepare(
    kind: Kind,
    seed: u64,
    dir: &Path,
    tracer: Option<Arc<Tracer>>,
) -> Result<(Env, Sim, f64, Measured), String> {
    let started = Instant::now();
    let shape = shape(kind);
    let catalog = Catalog::new(seed, shape.binaries, shape.runtime_s);
    let staged = Rng::stream(seed, 5).below(catalog.keys.len());
    // only the traced `submit` run dials the ring (see `shm_leg`)
    let shm = kind == Kind::Submit && tracer.is_some();
    let dep = deploy::deploy(dir, seed, &catalog, staged, tracer, shm)?;
    let env = Env { catalog, dep, shape };
    let mut sim = env.sim();
    let mut warm = Measured::default();
    if kind != Kind::Facility {
        let mut stream = JobStream::new(seed, 6, &env.catalog.classes, &env.catalog.binaries, env.shape.mix);
        let mut tally = Tally::default();
        for i in 0..WARMUP_JOBS {
            sim.submit(&env, &stream.next_job(), &mut tally);
            if i % ROUND == ROUND - 1 {
                while !sim.cluster.is_idle() {
                    sim.tick();
                }
                sim.completions(&env, None);
            }
        }
        warm.setup_attempted = tally.attempted;
        warm.setup_failed = tally.failed();
    }
    Ok((env, sim, started.elapsed().as_secs_f64(), warm))
}

/// Runs one segment of `seconds` of workload `kind`. `setups` is how
/// many times the deployment is built: the first half before the
/// measured phase (the last of those is measured), the rest after it, so
/// that the set-up times sample the host at two moments (see `pace`).
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    setups: usize,
    dir: &Path,
    tracer: Option<Arc<Tracer>>,
) -> Result<Measured, String> {
    let setups = setups.max(1);
    let mut setup_s = Vec::new();
    let mut set_up = |i: usize| {
        let pace_before = pace::reference();
        let (env, sim, s, warm) = prepare(kind, seed, &dir.join(format!("deploy-{i}")), tracer.clone())?;
        setup_s.push((pace_before.max(pace::reference()), s));
        Ok::<_, String>((env, sim, warm))
    };
    // warm-up operations of the set-ups that are not measured
    let (mut other_attempted, mut other_failed) = (0, 0);
    let mut prepared = None;
    for i in 0..setups.div_ceil(2) {
        if let Some((old_env, old_sim, old_warm)) = prepared.replace(set_up(i)?) {
            (other_attempted, other_failed) =
                (other_attempted + old_warm.setup_attempted, other_failed + old_warm.setup_failed);
            drop(old_sim);
            old_env.dep.teardown();
        }
    }
    let (env, sim, mut m): (Env, Sim, Measured) = prepared.expect("at least one set-up");
    m.boot_s = env.dep.boot_s;
    m.commits.extend(&env.dep.fill_commits);
    if let Some(t) = &tracer {
        // spans of the warm-up are not part of the measured phase
        t.take_layers();
    }
    let before = counters(&env);
    let result = match kind {
        Kind::Submit => {
            closed_loop(&env, sim, seed, seconds, &mut m);
            Ok(())
        }
        Kind::Churn => churn(&env, sim, seed, seconds, &mut m),
        Kind::Facility => {
            facility(&env, sim, seed, seconds, &mut m);
            Ok(())
        }
    };
    m.counters = deltas(&before, &counters(&env));
    // residency and evictions count from boot: the store catch-up is
    // where a working set larger than the registry loses its models
    let snap = env.dep.server.snapshot();
    m.counters.insert("registry.resident".into(), snap.models_resident as f64);
    m.counters.insert("registry.evictions".into(), snap.evictions as f64);
    m.counters.insert("daemon.service_us.p50".into(), snap.latency_p50_us as f64);
    m.counters.insert("daemon.service_us.p99".into(), snap.latency_p99_us as f64);
    let result = match result {
        Ok(()) if env.dep.shm_endpoints.is_some() => shm_leg(&env, seed, &mut m),
        other => other,
    };
    env.dep.teardown();
    result?;
    for i in setups.div_ceil(2)..setups {
        let (env, sim, warm) = set_up(i)?;
        (other_attempted, other_failed) = (other_attempted + warm.setup_attempted, other_failed + warm.setup_failed);
        drop(sim);
        env.dep.teardown();
    }
    m.setup_attempted += other_attempted;
    m.setup_failed += other_failed;
    m.setup_s = pace::quicker_half(setup_s);
    Ok(m)
}

/// `submit` (and thread 1 of `churn`): rounds of submissions, each
/// followed by a drain in 1 s ticks.
fn closed_loop(env: &Env, mut sim: Sim, seed: u64, seconds: f64, m: &mut Measured) {
    let mut stream = JobStream::new(seed, 7, &env.catalog.classes, &env.catalog.binaries, env.shape.mix);
    let traced = env.dep.tracer.is_some();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut cut = Windows::open(&m.sbatch, &m.ticks);
    while Instant::now() < deadline {
        if sim.submitted >= CLUSTER_JOBS {
            sim = env.sim();
        }
        for _ in 0..ROUND {
            let d = sim.submit(env, &stream.next_job(), &mut m.tally);
            m.sbatch.push(d);
        }
        while !sim.cluster.is_idle() {
            if traced {
                m.depth_sum += sim.pending();
            }
            m.ticks.push(sim.tick());
        }
        sim.completions(env, Some(m));
        cut.cut(&m.sbatch, &m.ticks, &mut m.windows, false);
    }
    cut.cut(&m.sbatch, &m.ticks, &mut m.windows, true);
    m.wall = m.windows.iter().map(|w| w.wall).sum();
}

/// `facility`: a seeded trace replayed into a power-capped packing
/// cluster, one new job per completion so the queue holds its depth.
/// Every replay must produce the same accounting digest.
fn facility(env: &Env, first: Sim, seed: u64, seconds: f64, m: &mut Measured) {
    let replays = ((seconds / FACILITY_REPLAY_S).round() as usize).max(1);
    let traced = env.dep.tracer.is_some();
    let mut next = Some(first);
    for _ in 0..replays {
        let mut sim = next.take().unwrap_or_else(|| env.sim());
        let mut stream = JobStream::new(seed, 8, &env.catalog.classes, &env.catalog.binaries, env.shape.mix);
        let mut setup_tally = Tally::default();
        for _ in 0..FACILITY_OUTSTANDING {
            sim.submit(env, &stream.next_job(), &mut setup_tally);
        }
        for _ in 0..FACILITY_WARMUP_TICKS {
            sim.tick();
            sim.completions(env, None);
            let refill = FACILITY_OUTSTANDING.saturating_sub(sim.jobs.len());
            for _ in 0..refill {
                sim.submit(env, &stream.next_job(), &mut setup_tally);
            }
        }
        m.setup_attempted += setup_tally.attempted;
        m.setup_failed += setup_tally.failed();
        let mut cut = Windows::blocks(&m.sbatch, &m.ticks);
        for tick in 1..=FACILITY_TICKS {
            if traced {
                m.depth_sum += sim.pending();
            }
            m.ticks.push(sim.tick());
            sim.completions(env, Some(m));
            let refill = FACILITY_OUTSTANDING.saturating_sub(sim.jobs.len());
            for _ in 0..refill {
                let d = sim.submit(env, &stream.next_job(), &mut m.tally);
                m.sbatch.push(d);
            }
            if tick % FACILITY_BLOCK == 0 {
                cut.cut(&m.sbatch, &m.ticks, &mut m.windows, true);
            }
        }
        let digest = digest(&sim.cluster);
        if m.digests.first().is_some_and(|&d| d != digest) {
            m.digest_mismatches += 1;
        }
        m.digests.push(digest);
    }
    m.wall = m.windows.iter().map(|w| w.wall).sum();
}

/// Traced `submit` only: a second client dials the daemon as
/// `shm://…,tcp://…`, the head-node deployment, and times single
/// predictions over the workload's keys, each checked against the store.
/// The ring's peers spin-wait for each other, so while it runs the
/// calling thread moves to the second CPU and leaves the first to the
/// daemon. Any fall-back to TCP is counted.
fn shm_leg(env: &Env, seed: u64, m: &mut Measured) -> Result<(), String> {
    let endpoints = env.dep.shm_endpoints.as_deref().ok_or("the daemon serves no ring")?;
    let client = PredictClient::builder()
        .endpoints(endpoints.split(','))
        .build()
        .map_err(|e| format!("client for {endpoints}: {e}"))?;
    let remote = RemotePrediction::from_client(client);
    let telemetry = Arc::new(Telemetry::wall());
    remote.set_telemetry(Arc::clone(&telemetry));
    let keys = &env.catalog.keys;
    let mut rng = Rng::stream(seed, 10);
    if !pin::to_cpu(1) {
        eprintln!("perfbench: no second CPU; the shared-memory leg shares CPU 0 with the daemon");
    }
    let mut deadline = None;
    for call in 0.. {
        if call == SHM_WARMUP_CALLS {
            deadline = Some(Instant::now() + Duration::from_secs_f64(SHM_SECONDS));
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let key = keys[rng.below(keys.len())].key;
        let t0 = Instant::now();
        let answer = remote.predict(key.0, key.1);
        let t1 = Instant::now();
        m.shm_calls += 1;
        if !answer.as_ref().is_ok_and(|c| env.dep.truth.accepts(key, c, t0, t1)) {
            m.shm_failed += 1;
            if m.shm_failed <= 3 {
                eprintln!("shared-memory prediction for {key:x?}: {answer:?}");
            }
        }
        if deadline.is_some() {
            m.shm_predict.push(t1 - t0);
        }
    }
    pin::to_cpu(0);
    let c = telemetry.counters_snapshot();
    m.shm_failovers = c.get("ring.failovers").copied().unwrap_or(0) + c.get("ring.probes").copied().unwrap_or(0);
    Ok(())
}

/// FNV-1a over every accounting record's id, configuration, start, end
/// and energy: the facility's decisions in one number.
fn digest(cluster: &Cluster) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in cluster.accounting().records() {
        eat(r.id.0);
        if let Some(c) = r.config {
            eat(c.cores as u64);
            eat(c.frequency_khz);
            eat(c.threads_per_core as u64);
        }
        eat(r.start_time.map_or(u64::MAX, |t| t.as_millis()));
        eat(r.end_time.map_or(u64::MAX, |t| t.as_millis()));
        eat(r.system_energy_j.to_bits());
    }
    h
}

/// `churn`: thread 1 submits in a closed loop over TCP across 128 keys;
/// thread 2 is an open-loop outcome feed on the same client that
/// drifts a few keys and, on every drift trip, re-fits, commits and
/// hot-rolls the new generation.
fn churn(env: &Env, sim: Sim, seed: u64, seconds: f64, m: &mut Measured) -> Result<(), String> {
    let mut store = env.dep.store.lock().expect("store lock").take().ok_or("the store handle is already taken")?;
    let mut served = std::mem::take(&mut *env.dep.served.lock().expect("served lock"));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let feed = std::thread::scope(|scope| {
        let feed = scope.spawn(|| outcome_feed(env, seed, deadline, &mut store, &mut served));
        closed_loop(env, sim, seed, seconds, m);
        feed.join().map_err(|_| "the outcome feed panicked".to_string())
    })?;
    let f = feed?;
    m.outcomes = f.outcomes;
    m.lateness = f.lateness;
    m.rollouts = f.rollouts;
    m.refits = f.refits;
    m.commits.extend(&f.commits);
    m.preloads = f.preloads;
    m.outcomes_sent += f.sent;
    m.outcomes_failed += f.failed;
    m.rollouts_failed += f.rollouts_failed;
    Ok(())
}

#[derive(Default)]
struct Feed {
    outcomes: Samples,
    lateness: Samples,
    rollouts: Samples,
    refits: Samples,
    commits: Samples,
    preloads: Samples,
    sent: u64,
    failed: u64,
    rollouts_failed: u64,
}

struct DriftKey {
    info: KeyInfo,
    expected: f64,
    in_phase: u32,
    drifting: bool,
    fresh: Vec<ObservedOutcome>,
}

fn outcome_feed(
    env: &Env,
    seed: u64,
    deadline: Instant,
    store: &mut chronusd::store::ModelStore,
    served: &mut HashMap<(u64, u64), Served>,
) -> Result<Feed, String> {
    let mut f = Feed::default();
    let mut rng = Rng::stream(seed, 9);
    let keys = &env.catalog.keys;
    let mut drift: Vec<DriftKey> = Vec::new();
    while drift.len() < DRIFT_KEYS {
        let info = keys[rng.below(keys.len())];
        if drift.iter().all(|d| d.info.key != info.key) {
            let expected = served[&info.key].record.provenance.best_gflops_per_watt;
            drift.push(DriftKey { info, expected, in_phase: 0, drifting: false, fresh: Vec::new() });
        }
    }
    let steady: Vec<KeyInfo> = keys.iter().copied().filter(|k| drift.iter().all(|d| d.info.key != k.key)).collect();
    let addr = env.dep.server.addr().to_string();
    let mut control = PredictClient::builder().endpoint(addr).build().map_err(|e| e.to_string())?;
    let snap = control.stats().map_err(|e| e.to_string())?;
    let (mut generation, mut trips_handled) = (snap.model_generation, snap.drift_trips);
    let mut next_model_id = 1_000_000i64;
    let interval = Duration::from_secs_f64(1.0 / OUTCOME_RATE);
    let start = Instant::now();
    let mut round_robin = 0usize;
    for i in 0u64.. {
        let due = start + interval * i as u32;
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let drifting_pick = rng.chance(DRIFT_SHARE);
        let (info, factor) = if drifting_pick {
            round_robin = (round_robin + 1) % drift.len();
            let d = &drift[round_robin];
            (d.info, if d.drifting { DRIFT_FACTOR } else { 1.0 })
        } else {
            (steady[rng.below(steady.len())], 1.0)
        };
        let expected = match drifting_pick {
            true => drift[round_robin].expected,
            false => served[&info.key].record.provenance.best_gflops_per_watt,
        };
        let watts = rng.range(250.0, 350.0);
        let outcome = ObservedOutcome {
            config: served[&info.key].blob.config,
            gflops: expected * factor * rng.range(0.99, 1.01) * watts,
            watts,
            duration_s: 60.0,
            node_class: env.catalog.classes[info.class].name.clone(),
        };
        let sent = Instant::now();
        let r = env.dep.source.report_outcome(info.key.0, info.key.1, &outcome);
        let done = Instant::now();
        let ns = |t: Instant| (t - start).as_nanos() as u64;
        let (latency, late) = open_loop_timing(ns(due), ns(sent), ns(done));
        f.outcomes.push_ns(latency);
        f.lateness.push_ns(late);
        f.sent += 1;
        if !matches!(r, Ok(true)) {
            f.failed += 1;
        }
        if !drifting_pick {
            continue;
        }
        let d = &mut drift[round_robin];
        d.in_phase += 1;
        if d.drifting {
            d.fresh.push(outcome);
        }
        if !d.drifting {
            if d.in_phase >= DRIFT_WINDOW {
                d.drifting = true;
                d.in_phase = 0;
            }
            continue;
        }
        if d.in_phase < 2 * DRIFT_WINDOW || !d.in_phase.is_multiple_of(DRIFT_WINDOW) {
            continue;
        }
        let trips = control.stats().map_err(|e| e.to_string())?.drift_trips;
        if trips <= trips_handled {
            continue;
        }
        trips_handled = trips;
        let visible = Instant::now();
        next_model_id += 1;
        match rollout(env, &mut control, store, served, &*d, next_model_id, generation, &mut f) {
            Ok(g) => {
                generation = g;
                f.rollouts.push(visible.elapsed());
            }
            Err(e) => {
                f.rollouts_failed += 1;
                if f.rollouts_failed <= 3 {
                    eprintln!("rollout failed: {e}");
                }
            }
        }
        d.drifting = false;
        d.in_phase = 0;
        d.fresh.clear();
    }
    Ok(f)
}

/// Re-fits a tripped key from the drifted outcomes, commits the
/// candidate to the store, stages it and hot-rolls it into the daemon,
/// then waits for the new generation to answer. Returns the committed
/// registry generation.
#[allow(clippy::too_many_arguments)]
fn rollout(
    env: &Env,
    control: &mut PredictClient,
    store: &mut chronusd::store::ModelStore,
    served: &mut HashMap<(u64, u64), Served>,
    d: &DriftKey,
    model_id: i64,
    generation: u64,
    f: &mut Feed,
) -> Result<u64, String> {
    let key = d.info.key;
    let class = &env.catalog.classes[d.info.class];
    let live = &served[&key];
    let t = Instant::now();
    let candidate = refit_blob(&live.blob, &d.fresh, &class.all_configurations()).map_err(|e| e.to_string())?;
    f.refits.push(t.elapsed());
    let t = Instant::now();
    let record =
        store.commit(&candidate.blob, model_id, candidate.provenance(&live.record)).map_err(|e| e.to_string())?;
    f.commits.push(t.elapsed());
    env.dep.truth.commit(key, candidate.blob.config, Instant::now());
    deploy::stage(&env.dep.home, model_id, class, &candidate.blob)?;
    let t = Instant::now();
    let ack = roll_into(control, model_id, Some(generation)).map_err(|e| e.to_string())?;
    f.preloads.push(t.elapsed());
    env.dep.truth.supersede(key, Instant::now());
    let answer = control.predict(key.0, key.1, &CallOptions::default()).map_err(|e| e.to_string())?;
    if answer != candidate.blob.config {
        return Err(format!("generation {} answers {answer}, expected {}", ack.generation, candidate.blob.config));
    }
    served.insert(key, Served { blob: candidate.blob, record });
    Ok(ack.generation)
}
