//! The traced run's instrumentation: decorators around the product's
//! public seams that record spans from the benchmark's own code.
//!
//! A span records its name, start, end, parent span and the id of the
//! root operation (one submission, one outcome report, one backend
//! call) it belongs to. Parents come from a per-thread stack, so a
//! decorator called inside another's span nests under it. When a root
//! closes, its tree's self times (duration minus the part of it that
//! child spans cover) and totals go into per-name samples; a bounded
//! prefix of the spans themselves is kept and written once at exit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use chronus::domain::Settings;
use chronus::interfaces::LocalStorage;
use chronus::remote::{ObservedOutcome, PredictionSource};
use chronus::telemetry::TraceContext;
use chronusd::{ModelBackend, PreparedModel};
use eco_sim_node::cpu::CpuConfig;
use eco_slurm_sim::plugin::{JobSubmitPlugin, PluginRejection};
use eco_slurm_sim::JobDescriptor;

use crate::stats::Samples;

/// Spans kept for the trace file; the rest only feed the samples.
const KEPT_SPANS: usize = 50_000;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    id: u64,
    parent: u64,
    root: u64,
    start_ns: u64,
    end_ns: u64,
    ok: bool,
}

/// Per-name timings: total duration and self time.
#[derive(Debug, Default)]
pub struct Layer {
    pub total: Samples,
    pub self_time: Samples,
    pub failed: u64,
}

/// Collects spans from every thread of the process.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    layers: Mutex<BTreeMap<&'static str, Layer>>,
    kept: Mutex<Vec<SpanRec>>,
}

thread_local! {
    /// Open spans of this thread, innermost last: (id, root).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
    /// Closed spans of this thread's open root.
    static DONE: RefCell<Vec<SpanRec>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            layers: Mutex::new(BTreeMap::new()),
            kept: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `ok` judges its result.
    pub fn span<R>(&self, name: &'static str, ok: impl FnOnce(&R) -> bool, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, root) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (parent, root) = open.last().copied().unwrap_or((0, id));
            open.push((id, root));
            (parent, root)
        });
        let start_ns = self.now_ns();
        let result = f();
        let end_ns = self.now_ns();
        let rec = SpanRec { name, id, parent, root, start_ns, end_ns, ok: ok(&result) };
        let closed_root = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            open.pop();
            open.is_empty()
        });
        DONE.with(|done| done.borrow_mut().push(rec));
        if closed_root {
            let tree: Vec<SpanRec> = DONE.with(|done| std::mem::take(&mut *done.borrow_mut()));
            self.fold(&tree);
        }
        result
    }

    /// Folds one finished root's spans into the per-name samples.
    fn fold(&self, tree: &[SpanRec]) {
        let mut layers = self.layers.lock().expect("tracer lock");
        for s in tree {
            let mut children: Vec<(u64, u64)> =
                tree.iter().filter(|c| c.parent == s.id).map(|c| (c.start_ns, c.end_ns)).collect();
            let covered = covered_ns(&mut children, s.start_ns, s.end_ns);
            let layer = layers.entry(s.name).or_default();
            layer.total.push_ns(s.end_ns - s.start_ns);
            layer.self_time.push_ns((s.end_ns - s.start_ns).saturating_sub(covered));
            if !s.ok {
                layer.failed += 1;
            }
        }
        drop(layers);
        let mut kept = self.kept.lock().expect("tracer lock");
        let room = KEPT_SPANS.saturating_sub(kept.len());
        kept.extend(tree.iter().take(room));
    }

    /// Takes the samples collected so far.
    pub fn take_layers(&self) -> BTreeMap<&'static str, Layer> {
        std::mem::take(&mut *self.layers.lock().expect("tracer lock"))
    }

    /// Writes the kept spans as CSV (name, id, parent, root, start_ns,
    /// end_ns, ok).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let kept = self.kept.lock().expect("tracer lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name,id,parent,root,start_ns,end_ns,ok")?;
        for s in kept.iter() {
            writeln!(out, "{},{},{},{},{},{},{}", s.name, s.id, s.parent, s.root, s.start_ns, s.end_ns, s.ok)?;
        }
        out.flush()
    }
}

/// Length of the part of `[start, end]` that the intervals cover.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// `JobSubmitPlugin` decorator: the plugin's whole `job_submit` call.
pub struct TracedPlugin {
    pub inner: Box<dyn JobSubmitPlugin>,
    pub tracer: Arc<Tracer>,
}

impl JobSubmitPlugin for TracedPlugin {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn job_submit(&mut self, job: &mut JobDescriptor, submit_uid: u32) -> Result<(), PluginRejection> {
        self.job_submit_traced(job, submit_uid, None)
    }

    fn job_submit_traced(
        &mut self,
        job: &mut JobDescriptor,
        submit_uid: u32,
        ctx: Option<TraceContext>,
    ) -> Result<(), PluginRejection> {
        let tracer = Arc::clone(&self.tracer);
        tracer.span(
            "plugin.job_submit",
            |r: &Result<(), PluginRejection>| r.is_ok(),
            || self.inner.job_submit_traced(job, submit_uid, ctx),
        )
    }
}

/// `PredictionSource` decorator: the client call, transport included.
pub struct TracedSource {
    pub inner: Arc<dyn PredictionSource>,
    pub tracer: Arc<Tracer>,
}

impl PredictionSource for TracedSource {
    fn predict(&self, system_hash: u64, binary_hash: u64) -> chronus::Result<CpuConfig> {
        self.predict_traced(system_hash, binary_hash, None)
    }

    fn predict_traced(
        &self,
        system_hash: u64,
        binary_hash: u64,
        ctx: Option<TraceContext>,
    ) -> chronus::Result<CpuConfig> {
        self.tracer.span(
            "client.predict",
            |r: &chronus::Result<CpuConfig>| r.is_ok(),
            || self.inner.predict_traced(system_hash, binary_hash, ctx),
        )
    }

    fn predict_many(&self, keys: &[(u64, u64)]) -> Vec<chronus::Result<CpuConfig>> {
        self.inner.predict_many(keys)
    }

    fn report_outcome(&self, system_hash: u64, binary_hash: u64, outcome: &ObservedOutcome) -> chronus::Result<bool> {
        self.tracer.span(
            "client.outcome",
            |r: &chronus::Result<bool>| matches!(r, Ok(true)),
            || self.inner.report_outcome(system_hash, binary_hash, outcome),
        )
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// `LocalStorage` decorator: the plugin's per-submission settings read.
pub struct TracedStorage {
    pub inner: Arc<dyn LocalStorage + Send + Sync>,
    pub tracer: Arc<Tracer>,
}

impl LocalStorage for TracedStorage {
    fn load_settings(&self) -> chronus::Result<Settings> {
        self.tracer.span(
            "plugin.settings_load",
            |r: &chronus::Result<Settings>| r.is_ok(),
            || self.inner.load_settings(),
        )
    }

    fn save_settings(&self, settings: &Settings) -> chronus::Result<()> {
        self.inner.save_settings(settings)
    }

    fn resolve(&self, path: &str) -> std::path::PathBuf {
        self.inner.resolve(path)
    }
}

/// `ModelBackend` decorator: the daemon's cold lookups and preloads.
pub struct TracedBackend {
    pub inner: Box<dyn ModelBackend>,
    pub tracer: Arc<Tracer>,
}

impl ModelBackend for TracedBackend {
    fn load(&self, model_id: i64) -> chronus::Result<PreparedModel> {
        self.tracer.span("backend.load", |r: &chronus::Result<PreparedModel>| r.is_ok(), || self.inner.load(model_id))
    }

    fn lookup(&self, system_hash: u64, binary_hash: u64) -> chronus::Result<PreparedModel> {
        self.tracer.span(
            "backend.lookup",
            |r: &chronus::Result<PreparedModel>| r.is_ok(),
            || self.inner.lookup(system_hash, binary_hash),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_time_merges_overlaps_and_clips_to_the_parent() {
        assert_eq!(covered_ns(&mut [], 0, 100), 0);
        assert_eq!(covered_ns(&mut [(10, 20), (30, 50)], 0, 100), 30);
        assert_eq!(covered_ns(&mut [(10, 40), (30, 50)], 0, 100), 40);
        assert_eq!(covered_ns(&mut [(90, 150)], 0, 100), 10);
    }

    #[test]
    fn self_time_excludes_children_and_nesting_follows_the_call_stack() {
        let tracer = Tracer::new();
        tracer.span(
            "outer",
            |_: &()| true,
            || {
                tracer.span("inner", |_: &()| true, || std::thread::sleep(std::time::Duration::from_millis(20)));
                std::thread::sleep(std::time::Duration::from_millis(5));
            },
        );
        tracer.span("other", |_: &bool| false, || false);
        let mut layers = tracer.take_layers();
        let outer = layers.get_mut("outer").unwrap();
        let (total, own) = (outer.total.p50_us(), outer.self_time.p50_us());
        assert!(total >= 25_000.0);
        assert!((5_000.0..20_000.0).contains(&own), "self time {own} us excludes the 20 ms child");
        let inner = layers.get_mut("inner").unwrap();
        assert!((inner.total.p50_us() - inner.self_time.p50_us()).abs() < 1e-9, "a leaf is all self time");
        assert_eq!(layers["other"].failed, 1);
        let kept = tracer.kept.lock().unwrap();
        let outer_rec = kept.iter().find(|s| s.name == "outer").unwrap();
        let inner_rec = kept.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner_rec.parent, outer_rec.id);
        assert_eq!(inner_rec.root, outer_rec.id);
        let other = kept.iter().find(|s| s.name == "other").unwrap();
        assert_eq!((other.parent, other.root), (0, other.id), "a new root after the first closed");
    }
}
