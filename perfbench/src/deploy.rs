//! Assembles the product the way a head node runs it: a model store
//! filled through `ModelStore::commit`, a `settings.json` staged in the
//! `chronus load-model` layout, chronusd started like
//! `chronus serve --store DIR` (default workers, cache and shard knobs;
//! with `--shm PATH` too when asked), a `RemotePrediction` client over
//! `tcp://`, and a simulated cluster with `job_submit_eco` registered.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use chronus::domain::{Benchmark, LoadedModel, PluginState};
use chronus::hash::{binary_hash, classed_system_hash, system_hash};
use chronus::integrations::storage::EtcStorage;
use chronus::interfaces::LocalStorage;
use chronus::remote::{PredictionSource, RemotePrediction};
use chronus::telemetry::Telemetry;
use chronus::ModelFactory;
use chronusd::campaign::fit_best_config;
use chronusd::store::{ModelBlob, ModelRecord, ModelStore, Provenance, ProvenanceSource};
use chronusd::{ModelBackend, PredictServer, ServerConfig, StorageBackend};
use eco_plugin::JobSubmitEco;
use eco_sim_node::class::NodeClass;
use eco_sim_node::cpu::CpuConfig;
use eco_sim_node::sysinfo::SystemFacts;
use eco_sim_node::{CpuLoad, PowerModel};
use eco_slurm_sim::plugin::JobSubmitPlugin;
use eco_slurm_sim::{Cluster, CoSchedulePolicy};

use crate::gen::{self, Binary, Rng};
use crate::stats::Samples;
use crate::trace::{TracedBackend, TracedPlugin, TracedSource, TracedStorage, Tracer};

/// The optimizer every generated model uses.
const MODEL_TYPE: &str = "brute-force";

/// Configurations measured per generated model.
const ROWS_PER_MODEL: usize = 12;

/// The head node the plugin runs on: its identity is the system half
/// of every prediction key, widened per node class.
fn head_class() -> NodeClass {
    NodeClass::sr650()
}

/// One prediction key of the generated world.
#[derive(Debug, Clone, Copy)]
pub struct KeyInfo {
    pub class: usize,
    pub binary: usize,
    pub key: (u64, u64),
}

/// The generated world: node classes, applications and every
/// (class × application) prediction key.
pub struct Catalog {
    pub classes: Vec<NodeClass>,
    pub binaries: Vec<Binary>,
    pub keys: Vec<KeyInfo>,
}

impl Catalog {
    pub fn new(seed: u64, n_binaries: usize, runtime_s: (f64, f64)) -> Catalog {
        let classes = gen::classes();
        let binaries = gen::binaries(seed, n_binaries, runtime_s);
        let head = head_class();
        let system = system_hash(&head.spec, head.ram_gb);
        let mut keys = Vec::new();
        for (ci, class) in classes.iter().enumerate() {
            for (bi, b) in binaries.iter().enumerate() {
                let key = (classed_system_hash(system, &class.name), binary_hash(&b.contents));
                keys.push(KeyInfo { class: ci, binary: bi, key });
            }
        }
        Catalog { classes, binaries, keys }
    }

    pub fn key_of(&self, class: usize, binary: usize) -> (u64, u64) {
        self.keys[class * self.binaries.len() + binary].key
    }
}

/// The configurations the store serves per key, each with the interval
/// in which it may answer: from its commit to the store until the
/// daemon has committed its successor.
#[derive(Default)]
pub struct Truth {
    served: Mutex<HashMap<(u64, u64), Vec<Generation>>>,
}

/// A served configuration, valid from its store commit until the
/// daemon committed its successor (`None`: still serving).
type Generation = (CpuConfig, Instant, Option<Instant>);

impl Truth {
    /// A generation for `key` was committed to the store at `at`.
    pub fn commit(&self, key: (u64, u64), config: CpuConfig, at: Instant) {
        self.served.lock().expect("truth lock").entry(key).or_default().push((config, at, None));
    }

    /// The daemon serves the latest generation of `key` from `at` on;
    /// every older one stops being a valid answer.
    pub fn supersede(&self, key: (u64, u64), at: Instant) {
        let mut served = self.served.lock().expect("truth lock");
        if let Some(gens) = served.get_mut(&key) {
            let last = gens.len().saturating_sub(1);
            for g in &mut gens[..last] {
                g.2.get_or_insert(at);
            }
        }
    }

    /// Whether `config` was a valid answer for `key` at some instant of
    /// `[from, to]`.
    pub fn accepts(&self, key: (u64, u64), config: &CpuConfig, from: Instant, to: Instant) -> bool {
        let served = self.served.lock().expect("truth lock");
        served.get(&key).is_some_and(|gens| {
            gens.iter().any(|(c, start, end)| c == config && *start <= to && end.is_none_or(|e| e >= from))
        })
    }
}

/// A committed model as the benchmark keeps it for later re-fits.
pub struct Served {
    pub blob: ModelBlob,
    pub record: ModelRecord,
}

/// Synthetic benchmark rows for one key: a seeded sample of the class's
/// configurations, with throughput from the application's model and
/// power from the class's calibrated power model.
fn bench_rows(rng: &mut Rng, class: &NodeClass, binary: &Binary, key: (u64, u64)) -> Vec<Benchmark> {
    use eco_hpcg::workload::Workload;
    let mut configs = class.all_configurations();
    let power = PowerModel::new(&class.spec, class.power.clone());
    let mut rows = Vec::with_capacity(ROWS_PER_MODEL);
    for i in 0..ROWS_PER_MODEL.min(configs.len()) {
        let config = configs.swap_remove(rng.below(configs.len()));
        let gflops = binary.workload.gflops(&config);
        let watts = power.system_power(&CpuLoad::busy(config), 60.0);
        let runtime_s = binary.workload.total_gflop() / gflops;
        rows.push(Benchmark {
            id: i as i64 + 1,
            system_id: 1,
            binary_hash: key.1,
            config,
            gflops,
            runtime_s,
            avg_system_w: watts,
            avg_cpu_w: watts * 0.6,
            avg_cpu_temp_c: 60.0,
            system_energy_j: watts * runtime_s,
            cpu_energy_j: watts * 0.6 * runtime_s,
            sample_count: 30,
        });
    }
    rows
}

/// A freshly filled store: the writer's handle, the committed models by
/// key, and the wall time of each commit.
pub struct Filled {
    pub store: ModelStore,
    pub served: HashMap<(u64, u64), Served>,
    pub commits: Samples,
}

/// Commits one model per key to the store at `dir`, as a benchmark
/// campaign would.
pub fn fill_store(dir: &Path, seed: u64, catalog: &Catalog, truth: &Truth) -> Result<Filled, String> {
    let mut store = ModelStore::open_dir(dir).map_err(|e| format!("open store: {e}"))?;
    let mut served = HashMap::new();
    let mut commits = Samples::default();
    for (i, k) in catalog.keys.iter().enumerate() {
        let class = &catalog.classes[k.class];
        // the rows follow the key's place in the catalog, not the seed:
        // a seed changes the hashes and the order of the job stream, but
        // not the configurations jobs run at, which set the work the
        // scheduler does
        let mut rng = Rng::stream(((k.class as u64) << 32) | k.binary as u64, 3);
        let rows = bench_rows(&mut rng, class, &catalog.binaries[k.binary], k.key);
        let fitted = fit_best_config(MODEL_TYPE, &rows, &class.all_configurations()).map_err(|e| e.to_string())?;
        let blob = ModelBlob {
            model_type: MODEL_TYPE.to_string(),
            system_hash: k.key.0,
            binary_hash: k.key.1,
            config: fitted.best,
            benchmarks: rows,
        };
        let provenance = Provenance {
            campaign: "perfbench".to_string(),
            seed,
            plan: MODEL_TYPE.to_string(),
            trials_run: ROWS_PER_MODEL as u64,
            trials_skipped: 0,
            trial_seconds: 0.0,
            best_gflops_per_watt: fitted.best_gflops_per_watt,
            node_class: class.name.clone(),
            source: ProvenanceSource::Campaign,
            refit_of: 0,
        };
        let t = Instant::now();
        let record = store.commit(&blob, i as i64 + 1, provenance).map_err(|e| format!("commit: {e}"))?;
        commits.push(t.elapsed());
        truth.commit(k.key, blob.config, Instant::now());
        served.insert(k.key, Served { blob, record });
    }
    Ok(Filled { store, served, commits })
}

/// Stages a model for the submit path exactly where `chronus
/// load-model` puts it: the serialized optimizer and its benchmark rows
/// under `opt/chronus/optimizers/`, and `settings.json` pointing at
/// them. The plugin state is `user`: only opted-in jobs are rewritten.
pub fn stage(home: &Path, model_id: i64, class: &NodeClass, blob: &ModelBlob) -> Result<(), String> {
    let storage = EtcStorage::new(home);
    let mut optimizer = ModelFactory::create(&blob.model_type).map_err(|e| e.to_string())?;
    optimizer.fit(&blob.benchmarks).map_err(|e| e.to_string())?;
    let bytes = optimizer.to_bytes().map_err(|e| e.to_string())?;
    let local_path = storage.resolve(&format!("opt/chronus/optimizers/model-{model_id}.json"));
    let benchmarks_path = storage.resolve(&format!("opt/chronus/optimizers/benchmarks-{model_id}.json"));
    if let Some(parent) = local_path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(&local_path, bytes).map_err(|e| e.to_string())?;
    let rows = serde_json::to_vec(&blob.benchmarks).map_err(|e| e.to_string())?;
    std::fs::write(&benchmarks_path, rows).map_err(|e| e.to_string())?;
    let mut settings = storage.load_settings().map_err(|e| e.to_string())?;
    settings.state = PluginState::User;
    settings.loaded_model = Some(LoadedModel {
        model_id,
        model_type: blob.model_type.clone(),
        local_path: local_path.to_string_lossy().into_owned(),
        system_hash: blob.system_hash,
        binary_hash: blob.binary_hash,
        facts: SystemFacts {
            cpu_name: class.spec.name.clone(),
            cores: class.spec.cores,
            threads_per_core: class.spec.threads_per_core,
            frequencies_khz: class.spec.frequencies_khz.clone(),
            ram_gb: class.ram_gb,
        },
        benchmarks_path: Some(benchmarks_path.to_string_lossy().into_owned()),
    });
    storage.save_settings(&settings).map_err(|e| e.to_string())
}

/// A running deployment: files, daemon, client and the plugin parts.
pub struct Deployment {
    pub dir: PathBuf,
    pub home: PathBuf,
    pub server: PredictServer,
    pub source: Arc<dyn PredictionSource>,
    pub storage: Arc<dyn LocalStorage + Send + Sync>,
    pub telemetry: Arc<Telemetry>,
    pub tracer: Option<Arc<Tracer>>,
    /// The writer's store handle and the models it committed, taken by
    /// the workload that commits re-fits.
    pub store: Mutex<Option<ModelStore>>,
    pub served: Mutex<HashMap<(u64, u64), Served>>,
    pub truth: Arc<Truth>,
    /// Wall time the daemon took to start, store catch-up included.
    pub boot_s: f64,
    /// Wall time of each commit that filled the store.
    pub fill_commits: Samples,
    /// `shm://PATH,tcp://ADDR` when the daemon also serves a ring.
    pub shm_endpoints: Option<String>,
}

/// Builds a deployment in `dir` serving one model per key of the
/// catalog, with key `staged` staged in `settings.json`. With `shm` the
/// daemon also serves a shared-memory ring in `dir`.
pub fn deploy(
    dir: &Path,
    seed: u64,
    catalog: &Catalog,
    staged: usize,
    tracer: Option<Arc<Tracer>>,
    shm: bool,
) -> Result<Deployment, String> {
    let _ = std::fs::remove_dir_all(dir);
    let home = dir.join("home");
    let store_dir = dir.join("store");
    std::fs::create_dir_all(&home).map_err(|e| format!("create {}: {e}", home.display()))?;
    let truth = Arc::new(Truth::default());
    let Filled { store, served, commits: fill_commits } = fill_store(&store_dir, seed, catalog, &truth)?;
    let k = catalog.keys[staged];
    stage(&home, served[&k.key].record.model_id, &catalog.classes[k.class], &served[&k.key].blob)?;

    let mut backend: Box<dyn ModelBackend> = Box::new(StorageBackend::new(Box::new(EtcStorage::new(&home))));
    if let Some(t) = &tracer {
        backend = Box::new(TracedBackend { inner: backend, tracer: Arc::clone(t) });
    }
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: Some(store_dir.to_string_lossy().into_owned()),
        shm_path: shm.then(|| dir.join("chronusd.shm").to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };
    let booted = Instant::now();
    let server = PredictServer::start(cfg, Arc::from(backend)).map_err(|e| format!("start chronusd: {e}"))?;
    let boot_s = booted.elapsed().as_secs_f64();
    let rejected = &server.boot_recovery().store.rejected;
    if !rejected.is_empty() {
        return Err(format!("store catch-up rejected {} model(s): {}", rejected.len(), rejected.join("; ")));
    }
    let endpoints = format!("tcp://{}", server.addr());
    let shm_endpoints = server.shm_path().map(|path| format!("shm://{path},{endpoints}"));
    let remote = RemotePrediction::from_endpoints(&endpoints).map_err(|e| format!("client for {endpoints}: {e}"))?;
    let telemetry = Arc::new(Telemetry::wall());
    let settings: Arc<dyn LocalStorage + Send + Sync> = Arc::new(EtcStorage::new(&home));
    let (source, storage): (Arc<dyn PredictionSource>, Arc<dyn LocalStorage + Send + Sync>) = match &tracer {
        Some(t) => {
            // the client's own counters are only read in the traced run
            remote.set_telemetry(Arc::clone(&telemetry));
            (
                Arc::new(TracedSource { inner: Arc::new(remote), tracer: Arc::clone(t) }),
                Arc::new(TracedStorage { inner: settings, tracer: Arc::clone(t) }),
            )
        }
        None => (Arc::new(remote), settings),
    };
    Ok(Deployment {
        dir: dir.to_path_buf(),
        home,
        server,
        source,
        storage,
        telemetry,
        tracer,
        store: Mutex::new(Some(store)),
        served: Mutex::new(served),
        truth,
        boot_s,
        fill_commits,
        shm_endpoints,
    })
}

impl Deployment {
    /// A fresh `job_submit_eco` over this deployment's settings and
    /// client, every application registered with its executable
    /// contents and every partition mapped to its node class.
    pub fn plugin(&self, catalog: &Catalog) -> Box<dyn JobSubmitPlugin> {
        let head = head_class();
        let mut eco = JobSubmitEco::new(Arc::clone(&self.storage), &head.spec, head.ram_gb);
        for b in &catalog.binaries {
            eco.register_binary(&b.path, &b.contents);
        }
        for c in &catalog.classes {
            eco.map_partition_class(&c.name, &c.name);
        }
        eco.set_source(Arc::clone(&self.source));
        // the shared instance carries the plugin's applied/skipped/errors
        // counters out of the cluster that owns the plugin
        eco.set_telemetry(Arc::clone(&self.telemetry));
        match &self.tracer {
            Some(t) => Box::new(TracedPlugin { inner: Box::new(eco), tracer: Arc::clone(t) }),
            None => Box::new(eco),
        }
    }

    /// A heterogeneous cluster with `per_class` nodes of every class,
    /// the applications installed and the plugin registered.
    pub fn cluster(&self, catalog: &Catalog, per_class: &[usize], capped: bool) -> Cluster {
        let classes: Vec<(NodeClass, usize)> =
            catalog.classes.iter().cloned().zip(per_class.iter().copied()).collect();
        let mut cluster = Cluster::heterogeneous(&classes);
        for b in &catalog.binaries {
            cluster.register_binary(&b.path, b.workload.clone());
        }
        if capped {
            let (mut idle_w, mut max_w, mut headroom_w) = (0.0, 0.0, 0.0);
            for (class, count) in &classes {
                idle_w += class.idle_system_w() * *count as f64;
                max_w += class.max_system_w() * *count as f64;
                headroom_w += class.max_fan_w() * *count as f64;
            }
            cluster.set_power_cap(Some(idle_w + headroom_w + 0.6 * (max_w - idle_w)));
            cluster.set_power_headroom(headroom_w);
            cluster.set_co_schedule(CoSchedulePolicy::Pack);
        }
        cluster.register_plugin(self.plugin(catalog));
        if self.tracer.is_some() {
            cluster.set_telemetry(Arc::clone(&self.telemetry));
        }
        cluster
    }

    /// Stops the daemon and removes the deployment's files.
    pub fn teardown(self) {
        let dir = self.dir.clone();
        drop(self.source);
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronusd::ModelRegistry;

    /// Registry residency when every key of `catalog` is installed into
    /// a registry with the daemon's default shards and capacity.
    fn resident(catalog: &Catalog) -> (usize, u64) {
        let defaults = ServerConfig::default();
        let registry = ModelRegistry::new(defaults.cache_shards, defaults.cache_cap);
        for (i, k) in catalog.keys.iter().enumerate() {
            registry.insert(k.key, i as i64, MODEL_TYPE.to_string(), CpuConfig::new(1, 1_500_000, 1));
        }
        (registry.len(), registry.evictions())
    }

    #[test]
    fn working_sets_sit_in_the_registry_as_the_workloads_assume() {
        for seed in (1..=10).chain([9001]) {
            // `submit`: 12 keys, none evicted
            assert_eq!(resident(&Catalog::new(seed, 6, (5.0, 15.0))), (12, 0), "seed {seed}");
            // `churn`: 128 keys spread over the shards, which hold close
            // to their 8 models each (a short shard keeps fewer)
            let (held, _) = resident(&Catalog::new(seed, 64, (5.0, 15.0)));
            assert!((56..=64).contains(&held), "seed {seed}: {held} resident");
        }
    }
}
