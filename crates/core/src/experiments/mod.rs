//! Experiment drivers: one per table and figure of the paper's evaluation.
//!
//! Each driver returns a plain-data result type with a `Display` impl that
//! renders the same rows/series the paper reports; the `report` binary
//! prints them, and the integration tests assert their qualitative shape
//! (who wins, how the trend moves with issue rate).
//!
//! All drivers hang off [`Lab`], the shared experiment state. The lab is
//! fully thread-safe (`&self` everywhere): benchmark programs, profiles,
//! reordered programs, layouts, block streams, materialized dynamic traces,
//! and [`Lab::run`]'s simulation results live in concurrent exactly-once
//! caches, so every expensive artifact is computed a single time per process
//! no matter how many drivers or worker threads ask for it. Block streams
//! are shared as `Arc<BlockStream>` and handed to the simulator by
//! reference-count bump (see
//! [`BlockCursor`](fetchmech_pipeline::BlockCursor)), never copied or
//! regenerated per run; per-instruction traces (`Arc<[DynInst]>`) feed the
//! drivers that count instruction statistics (Tables 2 and 3).
//!
//! Every simulated figure is a grid of cells — one (machine, scheme, layout,
//! benchmark class) configuration each, reported as a mean over the class.
//! A driver lists its cells once, in rows of the shape its result rows take,
//! and `Lab::cells` expands them over the class's benchmarks, runs them as one
//! job list on the lab's [`Runner`] worker pool, and hands back each cell's
//! per-benchmark results in cell order, so serial (`FETCHMECH_THREADS=1`) and
//! parallel runs produce bit-identical output. Tables 2–4 measure traces and
//! layouts rather than simulations and run their own job lists.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use fetchmech_compiler::{layout_pad_all, reorder, Profile, Reordered};
use fetchmech_isa::{BlockStream, DynInst, Layout, LayoutOptions, Program};
use fetchmech_pipeline::MachineModel;
use fetchmech_workloads::{suite, BehaviorMap, InputId, Workload, WorkloadClass, WorkloadSpec};

use crate::metrics::harmonic_mean;
use crate::runner::Runner;
use crate::scheme::SchemeKind;
use crate::sim::{measure_eir, simulate, EirResult, SimResult};

mod ablations;
mod ext_predictors;
mod fig10;
mod fig11;
mod fig12;
mod fig13;
mod fig3;
mod fig9;
mod table2;
mod table3;
mod table4;

pub use ablations::{AblationRow, Ablations, Sweep};
pub use ext_predictors::{ExtPredictors, ExtPredictorsRow};
pub use fig10::{Fig10, Fig10Row};
pub use fig11::{Fig11, Fig11Row};
pub use fig12::{Fig12, Fig12Row};
pub use fig13::{Fig13, Fig13Row};
pub use fig3::{Fig3, Fig3Row};
pub use fig9::{Fig9, Fig9Row};
pub use table2::{Table2, Table2Row};
pub use table3::{Table3, Table3Row};
pub use table4::{Table4, Table4Row};

/// Sizing knobs for the experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpConfig {
    /// Dynamic instructions simulated per (benchmark, machine, scheme) run.
    pub trace_len: u64,
    /// Dynamic instructions per profiling input.
    pub profile_len: u64,
}

impl ExpConfig {
    /// Full-length runs used by the `report` binary and EXPERIMENTS.md.
    #[must_use]
    pub fn full() -> Self {
        Self {
            trace_len: 300_000,
            profile_len: 60_000,
        }
    }

    /// Reduced runs for unit tests, `report --quick`, and CI.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            trace_len: 40_000,
            profile_len: 15_000,
        }
    }
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Which (program, layout) variant of a benchmark a run executes.
///
/// Together with the benchmark name and cache-block size this fully
/// identifies a static code image, and therefore (with input and length) a
/// dynamic trace — it is the layout component of the trace-cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutVariant {
    /// The natural (program-order) layout of the original program.
    Natural,
    /// The original program with `pad-all` nop padding (§4.1).
    PadAll,
    /// The profile-driven trace-reordered program (§4, Figure 12).
    Reordered,
    /// The reordered program with `pad-trace` nop padding (§4.1).
    PadTrace,
}

impl LayoutVariant {
    /// All variants.
    pub const ALL: [LayoutVariant; 4] = [
        LayoutVariant::Natural,
        LayoutVariant::PadAll,
        LayoutVariant::Reordered,
        LayoutVariant::PadTrace,
    ];

    /// Returns `true` if runs of this variant execute the reordered program
    /// rather than the original.
    #[must_use]
    pub fn uses_reordered_program(self) -> bool {
        matches!(self, LayoutVariant::Reordered | LayoutVariant::PadTrace)
    }

    /// Short stable name (also accepted by [`FromStr`](std::str::FromStr)) —
    /// the spelling the serve API and CLIs use.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LayoutVariant::Natural => "natural",
            LayoutVariant::PadAll => "pad-all",
            LayoutVariant::Reordered => "reordered",
            LayoutVariant::PadTrace => "pad-trace",
        }
    }
}

impl std::fmt::Display for LayoutVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error from parsing a [`LayoutVariant`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLayoutVariantError(String);

impl std::fmt::Display for ParseLayoutVariantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown layout {:?} (expected natural, pad-all, reordered, or pad-trace)",
            self.0
        )
    }
}

impl std::error::Error for ParseLayoutVariantError {}

impl std::str::FromStr for LayoutVariant {
    type Err = ParseLayoutVariantError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LayoutVariant::ALL
            .into_iter()
            .find(|v| v.name() == s)
            .ok_or_else(|| ParseLayoutVariantError(s.to_owned()))
    }
}

/// Cache key fully identifying one materialized dynamic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Benchmark name.
    pub bench: &'static str,
    /// Program/layout variant.
    pub variant: LayoutVariant,
    /// Cache-block size the layout was built for.
    pub block_bytes: u64,
    /// Program input.
    pub input: InputId,
    /// Trace length in dynamic instructions.
    pub limit: u64,
}

/// A concurrent exactly-once memo table.
///
/// The outer map lock is held only long enough to fetch or insert a per-key
/// cell; the (possibly expensive) compute runs under the cell's own
/// `OnceLock`, so distinct keys compute in parallel while a second requester
/// of the *same* key blocks until the first finishes — each value is computed
/// exactly once per process.
#[derive(Debug)]
struct Memo<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    fn new() -> Self {
        Self {
            cells: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let cell = Arc::clone(
            self.cells
                .lock()
                .expect("memo map lock poisoned")
                .entry(key)
                .or_default(),
        );
        let mut computed = false;
        let value = cell
            .get_or_init(|| {
                computed = true;
                compute()
            })
            .clone();
        if computed {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Hit/miss counters for the lab's shared caches.
///
/// A *miss* is an actual computation (a trace generation, a layout build, a
/// profiling run); a *hit* returned an already-shared `Arc`. Duplicate work
/// is eliminated exactly when the miss counters equal the number of distinct
/// keys requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LabCacheStats {
    /// Trace-cache hits (shared `Arc<[DynInst]>` returned, no generation).
    pub trace_hits: u64,
    /// Traces actually generated (one per distinct [`TraceKey`]).
    pub trace_generations: u64,
    /// Block-stream-cache hits (shared `Arc<BlockStream>` returned).
    pub stream_hits: u64,
    /// Block streams actually built (one per distinct [`TraceKey`]).
    pub stream_builds: u64,
    /// Layout-cache hits.
    pub layout_hits: u64,
    /// Layouts actually built.
    pub layout_builds: u64,
    /// Profile-cache hits.
    pub profile_hits: u64,
    /// Profiles actually collected.
    pub profile_collections: u64,
    /// Reorder-cache hits.
    pub reorder_hits: u64,
    /// Reorderings actually computed.
    pub reorder_builds: u64,
    /// [`Lab::run`] results returned from the simulation memo.
    pub sim_hits: u64,
    /// Simulations [`Lab::run`] actually ran (one per distinct
    /// (stream key, machine, scheme) cell).
    pub sim_runs: u64,
    /// [`Lab::eir`] results returned from the EIR memo.
    pub eir_hits: u64,
    /// EIR measurements [`Lab::eir`] actually ran (one per distinct
    /// (stream key, machine, scheme) cell).
    pub eir_runs: u64,
}

impl LabCacheStats {
    /// The counters as a JSON object (field order matches the struct), for
    /// the serve subsystem's `/metrics` endpoint and the bench writers.
    #[must_use]
    pub fn to_json(&self) -> crate::json::Value {
        use crate::json::Value;
        Value::object([
            ("trace_hits", Value::Uint(self.trace_hits)),
            ("trace_generations", Value::Uint(self.trace_generations)),
            ("stream_hits", Value::Uint(self.stream_hits)),
            ("stream_builds", Value::Uint(self.stream_builds)),
            ("layout_hits", Value::Uint(self.layout_hits)),
            ("layout_builds", Value::Uint(self.layout_builds)),
            ("profile_hits", Value::Uint(self.profile_hits)),
            ("profile_collections", Value::Uint(self.profile_collections)),
            ("reorder_hits", Value::Uint(self.reorder_hits)),
            ("reorder_builds", Value::Uint(self.reorder_builds)),
            ("sim_hits", Value::Uint(self.sim_hits)),
            ("sim_runs", Value::Uint(self.sim_runs)),
            ("eir_hits", Value::Uint(self.eir_hits)),
            ("eir_runs", Value::Uint(self.eir_runs)),
        ])
    }
}

/// Ceiling on concurrently registered external (frontend-uploaded)
/// programs per [`Lab`]. Registered names are interned for the process
/// lifetime (they key the `'static`-named caches below), so the registry
/// must be bounded; at the content-hash granularity the serve layer uses,
/// re-uploads of the same program do not consume new slots.
pub(crate) const MAX_EXTERNAL_PROGRAMS: usize = 128;

/// The experiment laboratory: benchmark suite plus concurrently cached
/// profiles, reordered programs, layouts, materialized traces, block streams
/// and simulation results, shared across all drivers and worker threads.
#[derive(Debug)]
pub struct Lab {
    cfg: ExpConfig,
    runner: Runner,
    benchmarks: Vec<Arc<Workload>>,
    /// Externally supplied (frontend-lowered) programs, in registration
    /// order. Names are interned to `'static` so externals flow through the
    /// same caches as suite benchmarks.
    external: Mutex<Vec<(&'static str, Arc<Workload>)>>,
    profiles: Memo<&'static str, Arc<Profile>>,
    reordered: Memo<&'static str, Arc<Reordered>>,
    reordered_workloads: Memo<&'static str, Arc<Workload>>,
    layouts: Memo<(&'static str, LayoutVariant, u64), Arc<Layout>>,
    traces: Memo<TraceKey, Arc<[DynInst]>>,
    streams: Memo<TraceKey, Arc<BlockStream>>,
    /// [`Lab::run`] results. The whole machine is the key, `name` included,
    /// because [`SimResult::machine`] carries the name.
    runs: Memo<(TraceKey, MachineModel, SchemeKind), SimResult>,
    /// [`Lab::eir`] results, keyed like `runs`.
    eirs: Memo<(TraceKey, MachineModel, SchemeKind), EirResult>,
}

impl Lab {
    /// Creates a lab over the full fifteen-benchmark suite, with the worker
    /// pool sized from the environment (`FETCHMECH_THREADS`, else the
    /// machine's available parallelism).
    ///
    /// In debug builds this also installs the `fetchmech-analysis` verifier
    /// hooks, so every program, layout, profile, trace selection, and reorder
    /// any driver produces is checked at its construction site. The hook
    /// slots are process-global `OnceLock`s, so installation and invocation
    /// are thread-safe under the parallel runner.
    #[must_use]
    pub fn new(cfg: ExpConfig) -> Self {
        Self::with_runner(cfg, Runner::from_env())
    }

    /// A lab with an explicit worker count (1 = fully serial execution).
    #[must_use]
    pub fn with_threads(cfg: ExpConfig, threads: usize) -> Self {
        Self::with_runner(cfg, Runner::new(threads))
    }

    /// A lab with an explicit runner.
    #[must_use]
    pub fn with_runner(cfg: ExpConfig, runner: Runner) -> Self {
        if cfg!(debug_assertions) {
            fetchmech_analysis::install_debug_hooks();
        }
        Self {
            cfg,
            runner,
            benchmarks: suite::full_suite().into_iter().map(Arc::new).collect(),
            external: Mutex::new(Vec::new()),
            profiles: Memo::new(),
            reordered: Memo::new(),
            reordered_workloads: Memo::new(),
            layouts: Memo::new(),
            traces: Memo::new(),
            streams: Memo::new(),
            runs: Memo::new(),
            eirs: Memo::new(),
        }
    }

    /// The worker pool the drivers execute their grids on.
    #[must_use]
    pub fn runner(&self) -> Runner {
        self.runner
    }

    /// All benchmarks of the given class.
    #[must_use]
    pub(crate) fn class(&self, class: WorkloadClass) -> Vec<&Workload> {
        self.benchmarks
            .iter()
            .map(Arc::as_ref)
            .filter(|w| w.spec.class == class)
            .collect()
    }

    /// Benchmark names of the given class, in suite order.
    #[must_use]
    pub fn class_names(&self, class: WorkloadClass) -> Vec<&'static str> {
        self.class(class).into_iter().map(|w| w.spec.name).collect()
    }

    /// A benchmark by name.
    ///
    /// # Panics
    ///
    /// Panics on unknown names (driver-internal use only).
    #[must_use]
    pub fn bench(&self, name: &str) -> &Workload {
        self.benchmarks
            .iter()
            .find(|w| w.spec.name == name)
            .unwrap_or_else(|| panic!("unknown benchmark {name}"))
    }

    /// Registers an externally supplied (frontend-lowered) program under
    /// `name`, returning the interned `'static` name to use with every other
    /// lab method. Registration is idempotent: re-registering `name` with an
    /// identical program and behaviours returns the existing interned name
    /// without consuming a slot.
    ///
    /// # Errors
    ///
    /// Rejects names that collide with suite benchmarks, re-registrations
    /// whose program or behaviours differ from the existing entry, and
    /// registrations beyond `MAX_EXTERNAL_PROGRAMS`.
    pub fn register_external(
        &self,
        name: &str,
        program: Program,
        behaviors: BehaviorMap,
    ) -> Result<&'static str, String> {
        if self.benchmarks.iter().any(|w| w.spec.name == name) {
            return Err(format!("{name:?} is a suite benchmark name"));
        }
        let mut external = self.external.lock().expect("external registry poisoned");
        if let Some((interned, existing)) = external.iter().find(|(n, _)| *n == name) {
            return if existing.program == program && existing.behaviors == behaviors {
                Ok(interned)
            } else {
                Err(format!(
                    "{name:?} is already registered with different contents"
                ))
            };
        }
        if external.len() >= MAX_EXTERNAL_PROGRAMS {
            return Err(format!(
                "external-program registry is full ({MAX_EXTERNAL_PROGRAMS} programs)"
            ));
        }
        let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
        external.push((
            interned,
            Arc::new(Workload {
                spec: WorkloadSpec::external(interned),
                program,
                behaviors,
            }),
        ));
        Ok(interned)
    }

    /// Resolves `name` to its interned `'static` form if it names a suite
    /// benchmark or a registered external program.
    #[must_use]
    pub fn intern_name(&self, name: &str) -> Option<&'static str> {
        if let Some(w) = self.benchmarks.iter().find(|w| w.spec.name == name) {
            return Some(w.spec.name);
        }
        self.external
            .lock()
            .expect("external registry poisoned")
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(n, _)| *n)
    }

    /// The workload registered under `name` — suite benchmark or external
    /// program — if any.
    #[must_use]
    pub(crate) fn find_workload(&self, name: &str) -> Option<Arc<Workload>> {
        if let Some(w) = self.benchmarks.iter().find(|w| w.spec.name == name) {
            return Some(Arc::clone(w));
        }
        self.external
            .lock()
            .expect("external registry poisoned")
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, w)| Arc::clone(w))
    }

    /// Names of all registered external programs, sorted.
    #[must_use]
    pub fn external_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .external
            .lock()
            .expect("external registry poisoned")
            .iter()
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        names
    }

    /// Internal lookup shared by the cache fill paths: suite benchmarks and
    /// registered externals resolve identically.
    fn workload_arc(&self, name: &str) -> Arc<Workload> {
        self.find_workload(name)
            .unwrap_or_else(|| panic!("unknown benchmark {name}"))
    }

    /// The profile for `name`, collected once on the five training inputs.
    pub fn profile(&self, name: &'static str) -> Arc<Profile> {
        self.profiles.get_or_compute(name, || {
            let w = self.workload_arc(name);
            Arc::new(Profile::collect(
                &w,
                &InputId::PROFILE,
                self.cfg.profile_len,
            ))
        })
    }

    /// The reordered (trace-laid-out) form of `name`, computed once.
    pub fn reordered(&self, name: &'static str) -> Arc<Reordered> {
        self.reordered.get_or_compute(name, || {
            let profile = self.profile(name);
            let w = self.workload_arc(name);
            Arc::new(reorder(&w.program, &profile))
        })
    }

    /// A reordered benchmark as a [`Workload`] (same behaviours, edited
    /// program), for executing against a reordered layout.
    pub(crate) fn reordered_workload(&self, name: &'static str) -> Arc<Workload> {
        self.reordered_workloads.get_or_compute(name, || {
            let r = self.reordered(name).program.clone();
            let w = self.workload_arc(name);
            Arc::new(Workload {
                spec: w.spec.clone(),
                program: r,
                behaviors: w.behaviors.clone(),
            })
        })
    }

    /// The workload whose program a given layout variant executes.
    #[must_use]
    pub fn workload(&self, name: &'static str, variant: LayoutVariant) -> Arc<Workload> {
        if variant.uses_reordered_program() {
            self.reordered_workload(name)
        } else {
            self.workload_arc(name)
        }
    }

    /// The layout of `name` under `variant` at `block_bytes`, built once and
    /// shared.
    ///
    /// # Panics
    ///
    /// Panics if the layout fails to build (an internal invariant: all suite
    /// programs lay out at all paper block sizes).
    pub fn layout(
        &self,
        name: &'static str,
        variant: LayoutVariant,
        block_bytes: u64,
    ) -> Arc<Layout> {
        self.layouts
            .get_or_compute((name, variant, block_bytes), || {
                let layout = match variant {
                    LayoutVariant::Natural => Layout::natural(
                        &self.workload_arc(name).program,
                        LayoutOptions::new(block_bytes),
                    ),
                    LayoutVariant::PadAll => {
                        layout_pad_all(&self.workload_arc(name).program, block_bytes)
                    }
                    LayoutVariant::Reordered => self.reordered(name).layout(block_bytes),
                    LayoutVariant::PadTrace => self.reordered(name).layout_pad_trace(block_bytes),
                };
                Arc::new(layout.unwrap_or_else(|e| {
                    panic!("{name}/{variant:?} layout at {block_bytes} B failed: {e:?}")
                }))
            })
    }

    /// The materialized dynamic trace for `key`, generated exactly once per
    /// process and shared zero-copy as an `Arc<[DynInst]>`.
    ///
    /// The trace is the expansion of a block stream generated for this call
    /// alone: it neither reads nor fills the [`Lab::stream`] cache, so its
    /// hit and build counts see only stream users.
    pub fn trace(&self, key: TraceKey) -> Arc<[DynInst]> {
        self.traces.get_or_compute(key, || {
            let w = self.workload(key.bench, key.variant);
            let layout = self.layout(key.bench, key.variant, key.block_bytes);
            // Allocate the trace before generating the stream: the other
            // order leaves the process a larger heap (about 2% more peak RSS
            // on `perfbench`'s paper grid). Whole-segment copies expand the
            // stream faster than its per-instruction iterator.
            let mut v: Vec<DynInst> = Vec::with_capacity(usize::try_from(key.limit).unwrap_or(0));
            let stream = w.block_stream(&layout, key.input, key.limit);
            for &id in stream.records() {
                v.extend_from_slice(stream.template(id).insts());
            }
            Arc::from(v)
        })
    }

    /// The run-length block stream for `key`, built exactly once per process
    /// and shared as an `Arc<BlockStream>`.
    ///
    /// The stream is generated *natively* — segment templates are interned
    /// while walking the layout, without materializing a per-instruction
    /// trace first — so the stream cache does not populate (or depend on)
    /// the trace cache. Streams are the native simulation input: handing
    /// [`simulate`] a per-instruction trace instead would re-encode it into
    /// a stream on every call.
    pub fn stream(&self, key: TraceKey) -> Arc<BlockStream> {
        self.streams.get_or_compute(key, || {
            let w = self.workload(key.bench, key.variant);
            let layout = self.layout(key.bench, key.variant, key.block_bytes);
            Arc::new(w.block_stream(&layout, key.input, key.limit))
        })
    }

    /// The standard measurement stream: test input, configured trace length.
    pub fn test_stream(
        &self,
        bench: &'static str,
        variant: LayoutVariant,
        block_bytes: u64,
    ) -> Arc<BlockStream> {
        self.stream(self.test_key(bench, variant, block_bytes))
    }

    /// The standard measurement trace: test input, configured trace length.
    pub fn test_trace(
        &self,
        bench: &'static str,
        variant: LayoutVariant,
        block_bytes: u64,
    ) -> Arc<[DynInst]> {
        self.trace(self.test_key(bench, variant, block_bytes))
    }

    /// The key of the standard measurement input: test input, configured
    /// trace length.
    fn test_key(&self, bench: &'static str, variant: LayoutVariant, block_bytes: u64) -> TraceKey {
        TraceKey {
            bench,
            variant,
            block_bytes,
            input: InputId::TEST,
            limit: self.cfg.trace_len,
        }
    }

    /// The full simulation of `bench` under `variant` on `machine`, run
    /// exactly once per (stream, machine, scheme) and shared.
    ///
    /// The block stream comes from the shared cache (built on first use) and
    /// is lent to the simulator by refcount bump; the simulator takes the
    /// block-stream fast path, which the differential oracle keeps
    /// bit-identical to the per-instruction path. The stream is resolved
    /// before the result memo is consulted, so every call counts as one
    /// stream-cache lookup whether or not it simulates.
    pub fn run(
        &self,
        machine: &MachineModel,
        scheme: SchemeKind,
        bench: &'static str,
        variant: LayoutVariant,
    ) -> SimResult {
        let key = self.test_key(bench, variant, machine.block_bytes);
        let stream = self.stream(key);
        self.runs
            .get_or_compute((key, machine.clone(), scheme), || {
                simulate(machine, scheme, &stream)
            })
    }

    /// Fetch-only EIR measurement of `bench` under `variant` on `machine`,
    /// measured exactly once per (stream, machine, scheme) and shared. Like
    /// [`Lab::run`], every call counts as one stream-cache lookup.
    pub fn eir(
        &self,
        machine: &MachineModel,
        scheme: SchemeKind,
        bench: &'static str,
        variant: LayoutVariant,
    ) -> EirResult {
        let key = self.test_key(bench, variant, machine.block_bytes);
        let stream = self.stream(key);
        self.eirs
            .get_or_compute((key, machine.clone(), scheme), || {
                measure_eir(machine, scheme, &stream)
            })
    }

    /// Runs `f` on every benchmark of every cell in `rows`, as one job list
    /// on the worker pool, and returns each cell's per-benchmark results
    /// (suite order), shaped like `rows`.
    pub(crate) fn cells<const K: usize, R: Send>(
        &self,
        rows: &[[Cell; K]],
        f: impl Fn(&Cell, &'static str) -> R + Sync,
    ) -> Vec<[Vec<R>; K]> {
        let jobs: Vec<(&Cell, &'static str)> = rows
            .as_flattened()
            .iter()
            .flat_map(|cell| {
                self.class_names(cell.class)
                    .into_iter()
                    .map(move |b| (cell, b))
            })
            .collect();
        let mut results = self
            .runner()
            .run(&jobs, |&(cell, bench)| f(cell, bench))
            .into_iter();
        rows.iter()
            .map(|row| {
                row.each_ref().map(|cell| {
                    results
                        .by_ref()
                        .take(self.class(cell.class).len())
                        .collect()
                })
            })
            .collect()
    }

    /// Harmonic-mean IPC over each cell's benchmarks, shaped like `rows`.
    pub(crate) fn mean_ipc<const K: usize>(&self, rows: &[[Cell; K]]) -> Vec<[f64; K]> {
        self.cells(rows, |c, bench| {
            self.run(&c.machine, c.scheme, bench, c.variant).ipc()
        })
        .into_iter()
        .map(|row| row.map(|ipcs| harmonic_mean(&ipcs)))
        .collect()
    }

    /// Snapshot of the shared-cache hit/miss counters.
    #[must_use]
    pub fn cache_stats(&self) -> LabCacheStats {
        LabCacheStats {
            trace_hits: self.traces.hits(),
            trace_generations: self.traces.misses(),
            stream_hits: self.streams.hits(),
            stream_builds: self.streams.misses(),
            layout_hits: self.layouts.hits(),
            layout_builds: self.layouts.misses(),
            profile_hits: self.profiles.hits(),
            profile_collections: self.profiles.misses(),
            reorder_hits: self.reordered.hits(),
            reorder_builds: self.reordered.misses(),
            sim_hits: self.runs.hits(),
            sim_runs: self.runs.misses(),
            eir_hits: self.eirs.hits(),
            eir_runs: self.eirs.misses(),
        }
    }
}

/// One cell of an experiment grid: a machine, scheme and layout variant,
/// measured on every benchmark of one class.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    pub(crate) machine: MachineModel,
    pub(crate) scheme: SchemeKind,
    pub(crate) variant: LayoutVariant,
    pub(crate) class: WorkloadClass,
}

impl Cell {
    pub(crate) fn new(
        machine: &MachineModel,
        scheme: SchemeKind,
        variant: LayoutVariant,
        class: WorkloadClass,
    ) -> Self {
        Self {
            machine: machine.clone(),
            scheme,
            variant,
            class,
        }
    }
}

/// One row per (paper machine, class) — integer before floating point — of
/// natural-layout cells, one cell per scheme.
pub(crate) fn scheme_rows<const K: usize>(schemes: [SchemeKind; K]) -> Vec<[Cell; K]> {
    MachineModel::paper_models()
        .iter()
        .flat_map(|m| {
            [WorkloadClass::Int, WorkloadClass::Fp]
                .map(|class| schemes.map(|s| Cell::new(m, s, LayoutVariant::Natural, class)))
        })
        .collect()
}

/// Formats a benchmark-class label the way the paper's figures do.
#[must_use]
pub(crate) fn class_label(class: WorkloadClass) -> &'static str {
    match class {
        WorkloadClass::Int => "integer",
        WorkloadClass::Fp => "floating-point",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_caches_profiles_and_reorderings() {
        let lab = Lab::new(ExpConfig::quick());
        let a = lab.profile("compress");
        let b = lab.profile("compress");
        assert!(Arc::ptr_eq(&a, &b), "second lookup must share the Arc");
        let ra = lab.reordered("compress");
        let rb = lab.reordered("compress");
        assert!(Arc::ptr_eq(&ra, &rb));
        let stats = lab.cache_stats();
        assert_eq!(stats.profile_collections, 1);
        // Two direct lookups plus the reordering's internal one: 2 hits.
        assert_eq!(stats.profile_hits, 2);
        assert_eq!(stats.reorder_builds, 1);
        assert_eq!(stats.reorder_hits, 1);
    }

    #[test]
    fn trace_cache_generates_each_key_once() {
        let lab = Lab::with_threads(ExpConfig::quick(), 1);
        let a = lab.test_trace("compress", LayoutVariant::Natural, 16);
        let b = lab.test_trace("compress", LayoutVariant::Natural, 16);
        assert!(Arc::ptr_eq(&a, &b), "cache must return the same allocation");
        assert_eq!(a.len(), ExpConfig::quick().trace_len as usize);
        // A different block size is a different static image.
        let c = lab.test_trace("compress", LayoutVariant::Natural, 32);
        assert!(!Arc::ptr_eq(&a, &c));
        let stats = lab.cache_stats();
        assert_eq!(stats.trace_generations, 2);
        assert_eq!(stats.trace_hits, 1);
    }

    #[test]
    fn trace_cache_is_shared_across_threads() {
        let lab = Lab::with_threads(ExpConfig::quick(), 4);
        let jobs: Vec<u32> = (0..8).collect();
        let traces = lab.runner().run(&jobs, |_| {
            lab.test_trace("eqntott", LayoutVariant::Natural, 16)
        });
        for t in &traces {
            assert!(
                Arc::ptr_eq(&traces[0], t),
                "all workers must share one trace"
            );
        }
        assert_eq!(lab.cache_stats().trace_generations, 1);
        assert_eq!(lab.cache_stats().trace_hits, 7);
    }

    #[test]
    fn cells_match_a_serial_loop_in_cell_order() {
        let lab = Lab::with_threads(ExpConfig::quick(), 2);
        let (p14, p18) = (MachineModel::p14(), MachineModel::p18());
        let int = Cell::new(
            &p14,
            SchemeKind::Sequential,
            LayoutVariant::Natural,
            WorkloadClass::Int,
        );
        let fp = Cell::new(
            &p18,
            SchemeKind::Perfect,
            LayoutVariant::PadAll,
            WorkloadClass::Fp,
        );
        let rows = [[int.clone(), fp.clone()], [fp, int]];
        let run = |c: &Cell, bench| lab.run(&c.machine, c.scheme, bench, c.variant);

        let lookups = |s: LabCacheStats| s.stream_hits + s.stream_builds;
        let before = lookups(lab.cache_stats());
        let grid = lab.cells(&rows, run);
        let benches: u64 = rows
            .as_flattened()
            .iter()
            .map(|c| lab.class_names(c.class).len() as u64)
            .sum();
        assert_eq!(lookups(lab.cache_stats()) - before, benches);

        assert_eq!(grid.len(), rows.len());
        for (cell, results) in rows.as_flattened().iter().zip(grid.iter().flatten()) {
            let serial: Vec<SimResult> = lab
                .class_names(cell.class)
                .into_iter()
                .map(|bench| run(cell, bench))
                .collect();
            assert_eq!(results, &serial, "{cell:?}");
        }
    }

    #[test]
    fn class_partition_covers_suite() {
        let lab = Lab::new(ExpConfig::quick());
        let int = lab.class(WorkloadClass::Int).len();
        let fp = lab.class(WorkloadClass::Fp).len();
        assert_eq!(int, 9);
        assert_eq!(fp, 6);
        assert_eq!(lab.class_names(WorkloadClass::Int).len(), 9);
    }

    #[test]
    fn external_programs_flow_through_the_caches() {
        let lab = Lab::with_threads(ExpConfig::quick(), 1);
        let donor = lab.bench("compress");
        let (program, behaviors) = (donor.program.clone(), donor.behaviors.clone());

        // Suite names are off limits.
        assert!(lab
            .register_external("compress", program.clone(), behaviors.clone())
            .is_err());

        let id = lab
            .register_external("prog-test", program.clone(), behaviors.clone())
            .expect("registers");
        // Idempotent for identical contents, rejected for different ones.
        let again = lab
            .register_external("prog-test", program.clone(), behaviors.clone())
            .expect("re-register");
        assert_eq!(id, again);
        let other = lab.bench("eqntott");
        assert!(lab
            .register_external("prog-test", other.program.clone(), other.behaviors.clone())
            .is_err());

        assert_eq!(lab.intern_name("prog-test"), Some(id));
        assert_eq!(lab.external_names(), vec![id]);
        assert!(lab.find_workload("prog-test").is_some());
        assert!(lab.intern_name("prog-unknown").is_none());

        // The external flows through trace generation and simulation like a
        // suite benchmark.
        let t = lab.test_trace(id, LayoutVariant::Natural, 16);
        assert_eq!(t.len(), ExpConfig::quick().trace_len as usize);
        let r = lab.run(
            &MachineModel::p14(),
            SchemeKind::Sequential,
            id,
            LayoutVariant::Natural,
        );
        assert_eq!(r.retired, ExpConfig::quick().trace_len);
    }

    #[test]
    fn reordered_variants_use_the_reordered_program() {
        let lab = Lab::new(ExpConfig::quick());
        for v in LayoutVariant::ALL {
            let w = lab.workload("compress", v);
            let same_as_base = w.program == lab.bench("compress").program;
            assert_eq!(
                same_as_base,
                !v.uses_reordered_program(),
                "{v:?}: wrong program variant"
            );
        }
    }
}
