//! `fetchmech-lint`: run the verification passes over suite benchmarks, and
//! the cycle-level sanitizer over live simulations.
//!
//! ```text
//! fetchmech-lint [OPTIONS] [BENCHMARK...]
//!
//!   BENCHMARK           suite benchmark names (default: the full suite)
//!   --json              emit diagnostics as a JSON array
//!   --pass NAME         run only the named pass (repeatable)
//!   --disable RULE      drop findings of one rule id (repeatable)
//!   --insts N           profiling/diff instruction budget (default 20000)
//!   --deny-warnings     exit nonzero on warnings too
//!   --list, --list-passes
//!                       print the registered passes and their rules
//!   --help              print this help
//!
//! fetchmech-lint analyze [OPTIONS] [BENCHMARK...]
//!
//!   BENCHMARK           suite benchmark names (default: the full suite)
//!   --machine NAME      p14 | p18 | p112 (default p14)
//!   --layout KIND       natural | pad-all | reordered | pad-trace
//!                       (default natural)
//!   --analysis NAME     reach | dom | live | reachdef | lvn | ssa | geometry
//!                       (repeatable; default: all)
//!   --measured          also measure per-scheme EIR and check it against
//!                       the static bound (sanitize.static_bound)
//!   --insts N           profile/measurement budget (default 20000)
//!   --threads N         worker threads for the per-benchmark fan-out
//!   --disable RULE      drop findings of one rule id (repeatable)
//!   --json              emit one JSON object per benchmark (array)
//!   --list              print the analysis catalog
//!   --help              print this help
//!
//! fetchmech-lint opt [OPTIONS] [BENCHMARK...]
//!
//!   BENCHMARK           suite benchmark names (default: the full suite)
//!   --passes LIST       comma-separated ordered pipeline, from
//!                       lvn | dce | superblock | straighten (default: all)
//!   --machine NAME      p14 | p18 | p112 (default p14), for the EIR report
//!   --verify            translation-validate the pipeline result (static
//!                       rules + dynamic trace equivalence per pass)
//!   --insts N           profile/verification budget (default 20000)
//!   --threads N         worker threads for the per-benchmark fan-out
//!   --disable RULE      drop findings of one rule id (repeatable)
//!   --json              emit one JSON object per benchmark (array)
//!   --list              print the pass and rule catalog
//!   --self-test         corrupt a pipeline result in-process; findings are
//!                       EXPECTED (exits 1)
//!   --help              print this help
//!
//! fetchmech-lint frontend [OPTIONS] FILE...
//!
//!   FILE                external programs: .bril.json / .json (Bril-style
//!                       JSON CFG) or .wat (flat WebAssembly text)
//!   --machine NAME      p14 | p18 | p112 (default p14)
//!   --insts N           profile/verification budget (default 20000)
//!   --threads N         worker threads for the per-file fan-out
//!   --disable RULE      drop findings of one rule id (repeatable)
//!   --json              emit one JSON object per file (array)
//!   --dump              print each lowered program as assembler-style text
//!   --verify            additionally run the full opt pipeline under
//!                       translation validation and simulate every fetch
//!                       scheme over the lowered program
//!   --list              print the accepted formats and annotations
//!   --help              print this help
//!
//! fetchmech-lint sanitize [OPTIONS] [BENCHMARK...]
//!
//!   BENCHMARK           suite benchmark names (default: the full suite)
//!   --machine NAME      p14 | p18 | p112 (default p14)
//!   --insts N           dynamic trace length per run (default 20000)
//!   --short             quick mode for CI: 4000-instruction traces
//!   --threads N         worker threads for the per-benchmark fan-out
//!                       (default: FETCHMECH_THREADS or available
//!                       parallelism; a conflicting env var warns once)
//!   --disable RULE      disable one sanitizer rule id (repeatable)
//!   --json              emit diagnostics as a JSON array
//!   --list              print the sanitizer rule catalog
//!   --self-test         feed the engine its built-in corrupted event
//!                       streams; findings are EXPECTED (exits 1)
//!   --help              print this help
//! ```
//!
//! Every suite artifact the CLI checks — profile, reordering, the four
//! layouts (natural, pad-all, reordered, pad-trace) and the test-input
//! traces — comes from one [`Lab`] sized by `--insts`, so the checks cover
//! the same derivation the paper drivers and `fetchmech-serve` run. The
//! default mode runs every applicable pass over each artifact, including
//! the dynamic trace diff. The `sanitize` mode instead runs the full
//! simulator under the cycle-level sanitizer for every fetch scheme, then
//! the cross-scheme EIR dominance harness over one shared trace. Only
//! `frontend` builds artifacts itself: external programs are not in the
//! lab. Exit status is 1 if any error-severity diagnostic was produced, 2
//! on usage errors.

use std::process::ExitCode;
use std::sync::Arc;

use fetchmech::compiler::{
    build_ssa, optimize, select_traces, OptimizeConfig, Optimized, PassEdit, PassKind, Profile,
    TraceSelectConfig,
};
use fetchmech::experiments::{ExpConfig, Lab, LayoutVariant};
use fetchmech::isa::{BlockId, CfgView, Inst, Layout, LayoutOptions};
use fetchmech::json::{diagnostics_value, Value};
use fetchmech::pipeline::MachineModel;
use fetchmech::runner::Runner;
use fetchmech::workloads::{suite, InputId, Workload, WorkloadSpec};
use fetchmech::{simulate, SchemeKind};
use fetchmech_analysis::sanitize::{self_test, RULES};
use fetchmech_analysis::{
    analyze_geometry, check_ssa, dataflow, eir_delta, has_errors, report_human, verify_optimized,
    Diagnostic, DiagnosticSink, Registry, SanitizeConfig, Severity, Target, OPT_RULES,
};
use fetchmech_frontend::Format;

const BLOCK_BYTES: u64 = 16;

/// Flags every analysis-style subcommand shares (`analyze`, `opt`,
/// `sanitize`, `frontend`). One parser keeps the surface — and the
/// machine-model spelling — from drifting between subcommands.
struct CommonFlags {
    machine: MachineModel,
    insts: u64,
    threads: Option<usize>,
    disabled: Vec<String>,
    json: bool,
}

impl CommonFlags {
    fn new() -> Self {
        CommonFlags {
            machine: MachineModel::p14(),
            insts: 20_000,
            threads: None,
            disabled: Vec::new(),
            json: false,
        }
    }

    /// Consumes `arg` (and its value, if any) when it is a shared flag.
    /// Returns `Ok(false)` for anything subcommand-specific.
    fn parse(&mut self, arg: &str, it: &mut std::slice::Iter<'_, String>) -> Result<bool, String> {
        match arg {
            "--json" => self.json = true,
            "--machine" => {
                let name = it.next().ok_or("--machine needs a model name")?;
                self.machine = MachineModel::by_name(name)
                    .ok_or_else(|| format!("unknown machine model {name}"))?;
            }
            "--insts" => {
                let n = it.next().ok_or("--insts needs a count")?;
                self.insts = n.parse().map_err(|_| format!("bad --insts value {n}"))?;
            }
            "--threads" => {
                let n = it.next().ok_or("--threads needs a count")?;
                self.threads = Some(n.parse().map_err(|_| format!("bad --threads value {n}"))?);
            }
            "--disable" => {
                let rule = it.next().ok_or("--disable needs a rule id")?;
                self.disabled.push(rule.clone());
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn keeps(&self, rule: &str) -> bool {
        !self.disabled.iter().any(|d| d == rule)
    }

    /// Runs `f` over every benchmark against one shared lab, fanned out on
    /// the `--threads` pool; results come back in argument order.
    fn run_suite<R: Send>(&self, names: &[String], f: impl Fn(&str, &Lab) -> R + Sync) -> Vec<R> {
        let lab = cli_lab(self.insts, Runner::from_flag_or_env(self.threads));
        lab.runner().run(names, |name| f(name, &lab))
    }
}

/// The full suite, for subcommands that default to it.
fn default_suite() -> Vec<String> {
    suite::INT_NAMES
        .iter()
        .chain(suite::FP_NAMES.iter())
        .map(ToString::to_string)
        .collect()
}

/// The lab every suite subcommand draws its artifacts from: profiles and
/// test-input traces are both `insts` instructions long.
fn cli_lab(insts: u64, runner: Runner) -> Lab {
    let cfg = ExpConfig {
        trace_len: insts,
        profile_len: insts,
    };
    Lab::with_runner(cfg, runner)
}

/// Resolves a command-line benchmark name to the lab's interned name.
fn resolve(lab: &Lab, name: &str) -> Result<&'static str, String> {
    lab.intern_name(name)
        .ok_or_else(|| format!("unknown benchmark {name}"))
}

/// Reports a usage error; exit status 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("fetchmech-lint: {message}");
    ExitCode::from(2)
}

/// Unwraps a subcommand's parsed options: `Ok(None)` (`--help` or `--list`
/// already printed) exits 0, a parse error prints the usage and exits 2.
fn parsed<T>(result: Result<Option<T>, String>, usage: &str) -> Result<T, ExitCode> {
    match result {
        Ok(Some(opts)) => Ok(opts),
        Ok(None) => Err(ExitCode::SUCCESS),
        Err(e) => {
            let code = usage_error(&e);
            eprintln!("{usage}");
            Err(code)
        }
    }
}

/// Exits 2 on the first id (a `--pass` name or `--disable` rule) that
/// `known` rejects.
fn check_ids(
    ids: &[String],
    known: impl Fn(&str) -> bool,
    what: &str,
    hint: &str,
) -> Result<(), ExitCode> {
    match ids.iter().find(|id| !known(id)) {
        Some(id) => Err(usage_error(&format!("unknown {what} {id} (see {hint})"))),
        None => Ok(()),
    }
}

/// Exit status 1 if `failed`, else 0.
fn exit_status(failed: bool) -> ExitCode {
    ExitCode::from(u8::from(failed))
}

/// Prints a self-test's findings. Findings are expected: exit status 1
/// proves the checker still catches the injected corruption.
fn self_test_report(diags: &[Diagnostic]) -> ExitCode {
    print!("{}", report_human(diags));
    exit_status(has_errors(diags))
}

/// Shared tail of the diagnostics-only modes (the default lint and
/// `sanitize`): a per-benchmark summary, or one JSON array of every
/// finding. Fails if any benchmark failed or any finding is at least as
/// severe as `fail_at`.
fn diagnostics_main(
    names: &[String],
    results: Vec<Result<Vec<Diagnostic>, String>>,
    json: bool,
    fail_at: Severity,
) -> ExitCode {
    let mut all = Vec::new();
    let mut failed = false;
    for (name, result) in names.iter().zip(results) {
        match result {
            Ok(diags) => {
                if !json {
                    let errors = diags
                        .iter()
                        .filter(|d| d.severity == Severity::Error)
                        .count();
                    println!("{name}: {} finding(s), {errors} error(s)", diags.len());
                    if !diags.is_empty() {
                        print!("{}", report_human(&diags));
                    }
                }
                all.extend(diags);
            }
            Err(e) => {
                eprintln!("fetchmech-lint: {e}");
                failed = true;
            }
        }
    }
    if json {
        println!("{}", diagnostics_value(&all).pretty());
    }
    exit_status(failed || all.iter().any(|d| d.severity >= fail_at))
}

struct Options {
    benchmarks: Vec<String>,
    json: bool,
    passes: Vec<String>,
    disabled: Vec<String>,
    insts: u64,
    /// The least severe finding that fails the run (`--deny-warnings`
    /// lowers it to warnings).
    fail_at: Severity,
}

fn usage() -> &'static str {
    "usage: fetchmech-lint [--json] [--pass NAME]... [--disable RULE]... \
     [--insts N] [--deny-warnings] [--list] [BENCHMARK...]"
}

fn list_passes() {
    let registry = Registry::with_default_passes();
    for pass in registry.passes() {
        println!("{}: {}", pass.name(), pass.description());
        for rule in pass.rules() {
            println!("  {rule}");
        }
    }
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        benchmarks: Vec::new(),
        json: false,
        passes: Vec::new(),
        disabled: Vec::new(),
        insts: 20_000,
        fail_at: Severity::Error,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.fail_at = Severity::Warning,
            "--list" | "--list-passes" => {
                list_passes();
                return Ok(None);
            }
            "--pass" => {
                let name = it.next().ok_or("--pass needs a pass name")?;
                opts.passes.push(name.clone());
            }
            "--disable" => {
                let rule = it.next().ok_or("--disable needs a rule id")?;
                opts.disabled.push(rule.clone());
            }
            "--insts" => {
                let n = it.next().ok_or("--insts needs a count")?;
                opts.insts = n.parse().map_err(|_| format!("bad --insts value {n}"))?;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            name => opts.benchmarks.push(name.to_string()),
        }
    }
    if opts.benchmarks.is_empty() {
        opts.benchmarks = default_suite();
    }
    Ok(Some(opts))
}

fn lint_benchmark(
    name: &str,
    lab: &Lab,
    opts: &Options,
    registry: &Registry,
) -> Result<Vec<Diagnostic>, String> {
    let name = resolve(lab, name)?;
    let w = lab.bench(name);
    let profile = lab.profile(name);
    let config = TraceSelectConfig::default();
    let reordered = lab.reordered(name);
    // Each variant's layout with the program it lays out, and the block
    // stream the simulator runs on it.
    let laid =
        LayoutVariant::ALL.map(|v| (lab.workload(name, v), lab.layout(name, v, BLOCK_BYTES)));
    let streams = LayoutVariant::ALL.map(|v| lab.test_stream(name, v, BLOCK_BYTES));

    let mut targets = vec![Target::Program(&w.program)];
    targets.extend(laid.iter().map(|(exec, layout)| Target::Layout {
        program: &exec.program,
        layout,
    }));
    targets.extend(streams.iter().map(|s| Target::Stream(s)));
    targets.extend([
        Target::Profile {
            program: &w.program,
            profile: &profile,
            config: Some(&config),
        },
        Target::Traces {
            program: &w.program,
            traces: &reordered.traces,
        },
        Target::Transform {
            original: &w.program,
            reordered: &reordered,
        },
        Target::TraceDiff {
            workload: w,
            reordered: &reordered,
            insts: opts.insts,
        },
    ]);
    let keep = |pass: &str| opts.passes.is_empty() || opts.passes.iter().any(|p| p == pass);
    let mut diags = Vec::new();
    for target in &targets {
        diags.extend(registry.run_filtered(target, keep));
    }
    diags.retain(|d| !opts.disabled.iter().any(|r| r == d.rule_id));
    Ok(diags)
}

// ---------------------------------------------------------------------------
// The `analyze` subcommand: static dataflow + fetch-geometry analysis.
// ---------------------------------------------------------------------------

/// The analysis catalog: selector name plus a one-line summary
/// (`analyze --list`).
const ANALYSES: &[(&str, &str)] = &[
    (
        "reach",
        "CFG reachability, plus the unreachable-block / profile-flow / trace-seed lints",
    ),
    (
        "dom",
        "per-function dominator trees (Cooper-Harvey-Kennedy)",
    ),
    (
        "live",
        "backward register liveness, plus the dead-write advisory lint",
    ),
    ("reachdef", "reaching definitions at every block boundary"),
    (
        "lvn",
        "local value numbering: redundant pure computations per block",
    ),
    (
        "ssa",
        "SSA construction (minimal phi placement) plus the well-formedness lint",
    ),
    (
        "geometry",
        "static fetch geometry and per-scheme EIR upper bounds",
    ),
];

struct AnalyzeOptions {
    benchmarks: Vec<String>,
    common: CommonFlags,
    layout: LayoutVariant,
    analyses: Vec<String>,
    measured: bool,
}

impl AnalyzeOptions {
    fn wants(&self, analysis: &str) -> bool {
        self.analyses.iter().any(|a| a == analysis)
    }
}

fn analyze_usage() -> &'static str {
    "usage: fetchmech-lint analyze [--machine p14|p18|p112] \
     [--layout natural|pad-all|reordered|pad-trace] [--analysis NAME]... \
     [--measured] [--insts N] [--threads N] [--disable RULE]... [--json] \
     [--list] [BENCHMARK...]"
}

fn list_analyses() {
    for (name, summary) in ANALYSES {
        println!("{name}: {summary}");
    }
}

fn parse_analyze_args(args: &[String]) -> Result<Option<AnalyzeOptions>, String> {
    let mut opts = AnalyzeOptions {
        benchmarks: Vec::new(),
        common: CommonFlags::new(),
        layout: LayoutVariant::Natural,
        analyses: Vec::new(),
        measured: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if opts.common.parse(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--measured" => opts.measured = true,
            "--list" => {
                list_analyses();
                return Ok(None);
            }
            "--layout" => {
                let kind = it.next().ok_or("--layout needs a layout kind")?;
                opts.layout = kind
                    .parse()
                    .map_err(|_| format!("unknown layout kind {kind}"))?;
            }
            "--analysis" => {
                let name = it.next().ok_or("--analysis needs an analysis name")?;
                if !ANALYSES.iter().any(|(a, _)| a == name) {
                    return Err(format!("unknown analysis {name} (see analyze --list)"));
                }
                opts.analyses.push(name.clone());
            }
            "--help" | "-h" => {
                println!("{}", analyze_usage());
                return Ok(None);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            name => opts.benchmarks.push(name.to_string()),
        }
    }
    if opts.analyses.is_empty() {
        opts.analyses = ANALYSES.iter().map(|(a, _)| (*a).to_string()).collect();
    }
    if opts.benchmarks.is_empty() {
        opts.benchmarks = default_suite();
    }
    Ok(Some(opts))
}

struct AnalyzeReport {
    human: String,
    json: Value,
    diags: Vec<Diagnostic>,
}

#[allow(clippy::too_many_lines)] // one linear section per analysis selector
fn analyze_benchmark(
    name: &str,
    lab: &Lab,
    opts: &AnalyzeOptions,
) -> Result<AnalyzeReport, String> {
    let name = resolve(lab, name)?;
    let block_bytes = opts.common.machine.block_bytes;
    let config = TraceSelectConfig::default();
    // The program the chosen layout lays out (the reordered one for the
    // reordered variants), plus the profile the `reach` lints check.
    let exec = lab.workload(name, opts.layout);
    let program = &exec.program;
    let layout = lab.layout(name, opts.layout, block_bytes);
    let profile = opts.wants("reach").then(|| lab.profile(name));

    let mut human = format!(
        "{name} [{}, {}]:\n",
        opts.common.machine.name,
        opts.layout.name()
    );
    let mut fields: Vec<(&str, Value)> = vec![
        ("benchmark", Value::Str(name.to_string())),
        ("machine", Value::Str(opts.common.machine.name.to_string())),
        ("layout", Value::Str(opts.layout.name().to_string())),
    ];
    let mut sink = DiagnosticSink::new();
    let mut extra: Vec<Diagnostic> = Vec::new();
    let num_blocks = program.num_blocks();

    if opts.wants("reach") {
        let reach = dataflow::reachability(program);
        let reachable = reach.iter().filter(|&&r| r).count();
        human += &format!("  reach: {reachable}/{} blocks reachable\n", reach.len());
        fields.push((
            "reach",
            Value::object([
                ("reachable", Value::Uint(reachable as u64)),
                ("blocks", Value::Uint(reach.len() as u64)),
            ]),
        ));
        dataflow::check_unreachable(program, &mut sink);
        if let Some(profile) = &profile {
            dataflow::check_profile_reachability(program, profile, &mut sink);
            let traces = select_traces(program, profile, &config);
            dataflow::check_trace_seeds(program, &traces, &mut sink);
        }
    }

    if opts.wants("dom") {
        let view = CfgView::local(program);
        let dom = dataflow::Dominators::compute(program, &view);
        let max_depth = (0..num_blocks)
            .map(|i| dom.depth(BlockId(i as u32)))
            .max()
            .unwrap_or(0);
        let funcs = program.func_entries().len();
        human += &format!("  dom: {funcs} function(s), max dominator depth {max_depth}\n");
        fields.push((
            "dom",
            Value::object([
                ("functions", Value::Uint(funcs as u64)),
                ("max_depth", Value::Uint(max_depth as u64)),
            ]),
        ));
    }

    if opts.wants("live") {
        let view = CfgView::local(program);
        let live = dataflow::liveness(program, &view);
        let mean_live = live
            .entry
            .iter()
            .map(|m| f64::from(m.count_ones()))
            .sum::<f64>()
            / live.entry.len().max(1) as f64;
        let dead = dataflow::dead_writes(program, &view, &live);
        human += &format!(
            "  live: mean {mean_live:.1} live-in regs, {} dead write(s)\n",
            dead.len()
        );
        fields.push((
            "live",
            Value::object([
                ("mean_live_in", Value::Num(mean_live)),
                ("dead_writes", Value::Uint(dead.len() as u64)),
            ]),
        ));
        dataflow::check_dead_writes(program, &mut sink);
    }

    if opts.wants("reachdef") {
        let view = CfgView::local(program);
        let defs = dataflow::ReachingDefs::compute(program, &view);
        let mean = (0..num_blocks)
            .map(|i| defs.reaching_count(BlockId(i as u32)) as f64)
            .sum::<f64>()
            / num_blocks.max(1) as f64;
        human += &format!(
            "  reachdef: {} def site(s), mean {mean:.1} reaching per block\n",
            defs.defs.len()
        );
        fields.push((
            "reachdef",
            Value::object([
                ("def_sites", Value::Uint(defs.defs.len() as u64)),
                ("mean_reaching", Value::Num(mean)),
            ]),
        ));
    }

    if opts.wants("lvn") {
        let redundant = dataflow::redundant_computations(program);
        human += &format!("  lvn: {redundant} redundant pure computation(s)\n");
        fields.push((
            "lvn",
            Value::object([("redundant", Value::Uint(redundant as u64))]),
        ));
    }

    if opts.wants("ssa") {
        let view = CfgView::local(program);
        let dom = dataflow::Dominators::compute(program, &view);
        let form = build_ssa(program, &view, &dom);
        let phis: usize = (0..num_blocks).map(|b| form.phis[b].len()).sum();
        human += &format!("  ssa: {} value(s), {phis} phi(s)\n", form.num_values());
        fields.push((
            "ssa",
            Value::object([
                ("values", Value::Uint(form.num_values() as u64)),
                ("phis", Value::Uint(phis as u64)),
            ]),
        ));
        check_ssa(program, &view, &dom, &form, &mut sink);
    }

    if opts.wants("geometry") {
        let report = analyze_geometry(program, &layout, &opts.common.machine);
        human += &format!(
            "  geometry: {} laid block(s), {} cache-line straddle(s)\n",
            report.blocks.len(),
            report.total_straddles()
        );
        let mut schemes = Vec::new();
        for sg in &report.schemes {
            human += &format!(
                "    {:<12} bound {:.2}  entry-packet {:.2}  taken-breaks {}  align-breaks {}\n",
                sg.scheme.name(),
                sg.eir_bound,
                sg.mean_entry_packet,
                sg.taken_breaks,
                sg.align_breaks
            );
            schemes.push(Value::object([
                ("scheme", Value::Str(sg.scheme.name().to_string())),
                ("eir_bound", Value::Num(sg.eir_bound)),
                ("mean_entry_packet", Value::Num(sg.mean_entry_packet)),
                ("taken_breaks", Value::Uint(sg.taken_breaks)),
                ("align_breaks", Value::Uint(sg.align_breaks)),
            ]));
        }
        fields.push((
            "geometry",
            Value::object([
                ("straddles", Value::Uint(report.total_straddles())),
                ("schemes", Value::Array(schemes)),
            ]),
        ));

        if opts.measured {
            // Execute the workload against this layout and check every
            // measured EIR against its static upper bound.
            let trace = lab.test_trace(name, opts.layout, block_bytes);
            let mut eirs = Vec::new();
            let mut measured = Vec::new();
            for scheme in SchemeKind::ALL {
                let (r, d) =
                    fetchmech::sanitize::measure_eir_checked(&opts.common.machine, scheme, &trace);
                extra.extend(d);
                human += &format!(
                    "    measured {:<12} EIR {:.3} (bound {:.3})\n",
                    scheme.name(),
                    r.eir(),
                    report.scheme(scheme).eir_bound
                );
                measured.push(Value::object([
                    ("scheme", Value::Str(scheme.name().to_string())),
                    ("eir", Value::Num(r.eir())),
                    ("eir_bound", Value::Num(report.scheme(scheme).eir_bound)),
                ]));
                eirs.push(r);
            }
            extra.extend(fetchmech::sanitize::verify_static_bound(
                &opts.common.machine,
                name,
                program,
                &layout,
                &eirs,
            ));
            fields.push(("measured", Value::Array(measured)));
        }
    }

    let mut diags = sink.into_diagnostics();
    diags.extend(extra);
    diags.retain(|d| opts.common.keeps(d.rule_id));
    fields.push(("diagnostics", diagnostics_value(&diags)));
    Ok(AnalyzeReport {
        human,
        json: Value::object(fields),
        diags,
    })
}

/// Shared tail of the report-producing subcommands (`analyze`, `opt`,
/// `frontend`): print or collect each report, emit the JSON array, fold
/// failures and error-severity findings into the exit status.
fn report_main(results: Vec<Result<AnalyzeReport, String>>, json: bool) -> ExitCode {
    let mut objects = Vec::new();
    let mut failed = false;
    let mut any_error = false;
    for result in results {
        match result {
            Ok(report) => {
                any_error |= has_errors(&report.diags);
                if json {
                    objects.push(report.json);
                } else {
                    print!("{}", report.human);
                    if !report.diags.is_empty() {
                        print!("{}", report_human(&report.diags));
                    }
                }
            }
            Err(e) => {
                eprintln!("fetchmech-lint: {e}");
                failed = true;
            }
        }
    }
    if json {
        println!("{}", Value::Array(objects).pretty());
    }
    exit_status(failed || any_error)
}

fn analyze_main(args: &[String]) -> Result<ExitCode, ExitCode> {
    let opts = parsed(parse_analyze_args(args), analyze_usage())?;
    check_ids(
        &opts.common.disabled,
        rule_id_known,
        "rule",
        "--list / sanitize --list",
    )?;
    // Benchmarks are independent: fan out, then report in suite order.
    let results = opts.common.run_suite(&opts.benchmarks, |name, lab| {
        analyze_benchmark(name, lab, &opts)
    });
    Ok(report_main(results, opts.common.json))
}

// ---------------------------------------------------------------------------
// The `opt` subcommand: the SSA-era pass pipeline under translation
// validation, with the static EIR-delta report.
// ---------------------------------------------------------------------------

/// Every rule id any subcommand can emit: the registry passes (which
/// include the opt-verify rules) plus the cycle sanitizer catalog.
fn rule_id_known(rule: &str) -> bool {
    let registry = Registry::with_default_passes();
    registry.passes().iter().any(|p| p.rules().contains(&rule))
        || RULES.iter().any(|(r, _)| *r == rule)
}

/// The pass catalog for `opt --list`.
const OPT_PASSES: &[(PassKind, &str)] = &[
    (
        PassKind::Lvn,
        "local value numbering: rewrite redundant pure computations to copies",
    ),
    (
        PassKind::Dce,
        "dead-code elimination: remove writes no path reads (SSA value liveness)",
    ),
    (
        PassKind::Superblock,
        "superblock formation: tail-duplicate side entrances out of hot traces",
    ),
    (
        PassKind::Straighten,
        "branch straightening: invert branches so hot successors fall through",
    ),
];

struct OptOptions {
    benchmarks: Vec<String>,
    common: CommonFlags,
    passes: Vec<PassKind>,
    verify: bool,
}

fn opt_usage() -> &'static str {
    "usage: fetchmech-lint opt [--passes lvn,dce,superblock,straighten] \
     [--machine p14|p18|p112] [--verify] [--insts N] [--threads N] \
     [--disable RULE]... [--json] [--list] [--self-test] [BENCHMARK...]"
}

fn list_opt() {
    println!("passes (applied in the order given to --passes):");
    for (kind, summary) in OPT_PASSES {
        println!("  {}: {summary}", kind.name());
    }
    println!("verification rules (--verify):");
    for rule in OPT_RULES {
        println!("  {rule}");
    }
    println!(
        "  {} (residual dead writes after dce, promoted to error)",
        fetchmech_analysis::dataflow::RULE_DEAD_WRITE
    );
}

fn parse_opt_args(args: &[String]) -> Result<Option<OptOptions>, String> {
    let mut opts = OptOptions {
        benchmarks: Vec::new(),
        common: CommonFlags::new(),
        passes: PassKind::ALL.to_vec(),
        verify: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if opts.common.parse(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--verify" => opts.verify = true,
            "--list" => {
                list_opt();
                return Ok(None);
            }
            "--passes" => {
                let list = it.next().ok_or("--passes needs a comma-separated list")?;
                opts.passes = list
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        PassKind::parse(s)
                            .ok_or_else(|| format!("unknown pass {s} (see opt --list)"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--help" | "-h" => {
                println!("{}", opt_usage());
                return Ok(None);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            name => opts.benchmarks.push(name.to_string()),
        }
    }
    if opts.benchmarks.is_empty() {
        opts.benchmarks = default_suite();
    }
    Ok(Some(opts))
}

/// One line per application summarizing what the pass did.
fn pass_summaries(optimized: &Optimized) -> Vec<(String, Value)> {
    optimized
        .applications
        .iter()
        .map(|app| {
            let (human, count) = match &app.edit {
                PassEdit::Lvn { rewrites } => {
                    (format!("{} rewrite(s)", rewrites.len()), rewrites.len())
                }
                PassEdit::Dce { removed, rounds } => (
                    format!("{} removal(s) in {rounds} round(s)", removed.len()),
                    removed.len(),
                ),
                PassEdit::Superblock { duplicated, formed } => (
                    format!("{formed} superblock(s), {} duplicate(s)", duplicated.len()),
                    duplicated.len(),
                ),
                PassEdit::Straighten { inverted } => {
                    (format!("{inverted} inversion(s)"), *inverted)
                }
            };
            (
                format!("{}: {human}", app.pass),
                Value::object([
                    ("pass", Value::Str(app.pass.to_string())),
                    ("edits", Value::Uint(count as u64)),
                ]),
            )
        })
        .collect()
}

fn opt_benchmark(name: &str, lab: &Lab, opts: &OptOptions) -> Result<AnalyzeReport, String> {
    let name = resolve(lab, name)?;
    let w = lab.bench(name);
    let profile = lab.profile(name);
    let optimized = optimize(
        &w.program,
        &profile,
        &opts.passes,
        &OptimizeConfig::default(),
    );
    // Re-profile the *optimized* program (branch behaviors aliased back to
    // their origins) so duplicated paths get their true original/copy flow
    // split instead of the projected double-count. The lab does not hold
    // optimized programs, so this profile is collected here.
    let w_after = Workload {
        spec: w.spec.clone(),
        program: optimized.program.clone(),
        behaviors: w.behaviors.with_origin(optimized.branch_origin.clone()),
    };
    let measured = Profile::collect(&w_after, &InputId::PROFILE, opts.common.insts);
    let delta = eir_delta(
        &w.program,
        &profile,
        &optimized,
        Some(&measured),
        &opts.common.machine,
    )
    .map_err(|e| format!("{name}: pipeline layout failed: {e}"))?;

    let mut human = format!(
        "{name} [{}]: {} -> {} block(s)\n",
        opts.common.machine.name,
        w.program.num_blocks(),
        optimized.program.num_blocks()
    );
    let mut fields: Vec<(&str, Value)> = vec![
        ("benchmark", Value::Str(name.to_string())),
        ("machine", Value::Str(opts.common.machine.name.to_string())),
        (
            "passes",
            Value::Array(
                opts.passes
                    .iter()
                    .map(|p| Value::Str(p.name().to_string()))
                    .collect(),
            ),
        ),
        ("blocks_before", Value::Uint(w.program.num_blocks() as u64)),
        (
            "blocks_after",
            Value::Uint(optimized.program.num_blocks() as u64),
        ),
    ];
    let mut summaries = Vec::new();
    for (line, json) in pass_summaries(&optimized) {
        human += &format!("  {line}\n");
        summaries.push(json);
    }
    fields.push(("applications", Value::Array(summaries)));

    let mut schemes = Vec::new();
    for ((before, after), weighted) in delta
        .before
        .schemes
        .iter()
        .zip(&delta.after.schemes)
        .zip(&delta.weighted)
    {
        human += &format!(
            "    {:<12} predicted {:.2} -> {:.2} ({:+.2})  bound {:.2} -> {:.2}  \
             taken-breaks {} -> {}\n",
            before.scheme.name(),
            weighted.before,
            weighted.after,
            weighted.after - weighted.before,
            before.eir_bound,
            after.eir_bound,
            before.taken_breaks,
            after.taken_breaks,
        );
        schemes.push(Value::object([
            ("scheme", Value::Str(before.scheme.name().to_string())),
            ("predicted_before", Value::Num(weighted.before)),
            ("predicted_after", Value::Num(weighted.after)),
            (
                "predicted_delta",
                Value::Num(weighted.after - weighted.before),
            ),
            ("bound_before", Value::Num(before.eir_bound)),
            ("bound_after", Value::Num(after.eir_bound)),
            ("entry_packet_before", Value::Num(before.mean_entry_packet)),
            ("entry_packet_after", Value::Num(after.mean_entry_packet)),
            ("taken_breaks_before", Value::Uint(before.taken_breaks)),
            ("taken_breaks_after", Value::Uint(after.taken_breaks)),
        ]));
    }
    fields.push(("eir_bounds", Value::Array(schemes)));

    let mut diags = Vec::new();
    if opts.verify {
        diags = verify_optimized(w, &profile, &optimized, opts.common.insts);
        diags.retain(|d| opts.common.keeps(d.rule_id));
    }
    fields.push(("diagnostics", diagnostics_value(&diags)));
    Ok(AnalyzeReport {
        human,
        json: Value::object(fields),
        diags,
    })
}

/// Corrupts a real pipeline result in-process and verifies the validator
/// still rejects it: findings are EXPECTED and exit status 1 proves the
/// gate is live (mirrors `sanitize --self-test`).
fn opt_self_test() -> ExitCode {
    let lab = cli_lab(20_000, Runner::new(1));
    let w = lab.bench("compress");
    let profile = lab.profile("compress");
    let mut optimized = optimize(
        &w.program,
        &profile,
        &PassKind::ALL,
        &OptimizeConfig::default(),
    );
    let app = optimized
        .applications
        .first_mut()
        .expect("the full pipeline records applications");
    // Smuggle an undeclared body edit into the first application's output.
    let mut edit = app.after.edit();
    edit.insts_mut(BlockId(0)).push(Inst::nop());
    app.after = edit.finish().expect("a nop keeps the program valid");
    self_test_report(&verify_optimized(w, &profile, &optimized, 4_000))
}

fn opt_main(args: &[String]) -> Result<ExitCode, ExitCode> {
    if args.iter().any(|a| a == "--self-test") {
        return Ok(opt_self_test());
    }
    let opts = parsed(parse_opt_args(args), opt_usage())?;
    check_ids(&opts.common.disabled, rule_id_known, "rule", "opt --list")?;
    let results = opts.common.run_suite(&opts.benchmarks, |name, lab| {
        opt_benchmark(name, lab, &opts)
    });
    Ok(report_main(results, opts.common.json))
}

// ---------------------------------------------------------------------------
// The `sanitize` subcommand: drive the simulator under the cycle sanitizer.
// ---------------------------------------------------------------------------

struct SanOptions {
    benchmarks: Vec<String>,
    common: CommonFlags,
}

fn sanitize_usage() -> &'static str {
    "usage: fetchmech-lint sanitize [--machine p14|p18|p112] [--insts N] \
     [--short] [--threads N] [--disable RULE]... [--json] [--list] [--self-test] \
     [BENCHMARK...]"
}

fn list_sanitize_rules() {
    for (rule, summary) in RULES {
        println!("{rule}: {summary}");
    }
}

fn parse_sanitize_args(args: &[String]) -> Result<Option<SanOptions>, String> {
    let mut opts = SanOptions {
        benchmarks: Vec::new(),
        common: CommonFlags::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if opts.common.parse(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--short" => opts.common.insts = 4_000,
            "--list" => {
                list_sanitize_rules();
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{}", sanitize_usage());
                return Ok(None);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            name => opts.benchmarks.push(name.to_string()),
        }
    }
    if opts.benchmarks.is_empty() {
        opts.benchmarks = default_suite();
    }
    Ok(Some(opts))
}

fn sanitize_benchmark(name: &str, lab: &Lab, opts: &SanOptions) -> Result<Vec<Diagnostic>, String> {
    let machine = &opts.common.machine;
    let name = resolve(lab, name)?;
    let natural = LayoutVariant::Natural;
    let layout = lab.layout(name, natural, machine.block_bytes);
    let trace = lab.test_trace(name, natural, machine.block_bytes);
    let mut cfg = SanitizeConfig::new();
    for rule in &opts.common.disabled {
        cfg.disable(rule.clone());
    }
    let mut diags = Vec::new();
    // Full pipeline under the sanitizer, once per scheme.
    for scheme in SchemeKind::ALL {
        let (_result, d) =
            fetchmech::sanitize::simulate_checked_with(machine, scheme, &trace, cfg.clone());
        diags.extend(d);
    }
    // Fetch-only differential harness + cross-scheme dominance, sharing the
    // same zero-copy trace.
    let (eirs, d) = fetchmech::sanitize::check_dominance(machine, name, &trace);
    diags.extend(d.into_iter().filter(|d| opts.common.keeps(d.rule_id)));
    // Static fetch-geometry upper bound: the measured EIRs must stay under
    // what the program + layout + machine alone permit.
    let program = &lab.bench(name).program;
    let d = fetchmech::sanitize::verify_static_bound(machine, name, program, &layout, &eirs);
    diags.extend(d.into_iter().filter(|d| opts.common.keeps(d.rule_id)));
    Ok(diags)
}

fn sanitize_main(args: &[String]) -> Result<ExitCode, ExitCode> {
    if args.iter().any(|a| a == "--self-test") {
        // Corrupted-by-construction event streams: findings mean the engine
        // still catches what it claims to, and the exit status reports them
        // like any other run (nonzero — the CLI test asserts exactly that).
        return Ok(self_test_report(&self_test()));
    }
    let opts = parsed(parse_sanitize_args(args), sanitize_usage())?;
    check_ids(
        &opts.common.disabled,
        |rule| RULES.iter().any(|(r, _)| *r == rule),
        "sanitizer rule",
        "sanitize --list",
    )?;
    // Benchmarks are independent: fan out, then report in argument order so
    // output (and the JSON array) stays deterministic.
    let results = opts.common.run_suite(&opts.benchmarks, |name, lab| {
        sanitize_benchmark(name, lab, &opts)
    });
    Ok(diagnostics_main(
        &opts.benchmarks,
        results,
        opts.common.json,
        Severity::Error,
    ))
}

// ---------------------------------------------------------------------------
// The `frontend` subcommand: lint external (Bril / WAT) programs.
// ---------------------------------------------------------------------------

struct FrontendOptions {
    files: Vec<String>,
    common: CommonFlags,
    dump: bool,
    verify: bool,
}

fn frontend_usage() -> &'static str {
    "usage: fetchmech-lint frontend [--machine p14|p18|p112] [--insts N] \
     [--threads N] [--disable RULE]... [--json] [--dump] [--verify] [--list] \
     FILE..."
}

fn list_frontend() {
    println!("formats (picked by file extension):");
    println!("  bril: Bril-style JSON CFG (.bril.json / .json)");
    println!("  wat: flat WebAssembly text subset (.wat)");
    println!("behaviour annotations (Bril `br` fields / WAT `;; @...` comments):");
    println!("  p=P            Bernoulli taken probability in [0, 1]");
    println!("  loop=M         geometric loop with mean M trips");
    println!("  fixed=N        exactly N trips per loop visit");
    println!("  pattern=BITS:E periodic bit pattern with noise E");
}

fn parse_frontend_args(args: &[String]) -> Result<Option<FrontendOptions>, String> {
    let mut opts = FrontendOptions {
        files: Vec::new(),
        common: CommonFlags::new(),
        dump: false,
        verify: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if opts.common.parse(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--dump" => opts.dump = true,
            "--verify" => opts.verify = true,
            "--list" => {
                list_frontend();
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{}", frontend_usage());
                return Ok(None);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            name => opts.files.push(name.to_string()),
        }
    }
    if opts.files.is_empty() {
        return Err("frontend needs at least one program file".to_owned());
    }
    for file in &opts.files {
        if Format::for_path(file).is_none() {
            return Err(format!(
                "cannot infer a format for {file} (expected .bril.json, .json, or .wat)"
            ));
        }
    }
    Ok(Some(opts))
}

fn frontend_file(path: &str, opts: &FrontendOptions) -> Result<AnalyzeReport, String> {
    let format = Format::for_path(path).expect("extension validated at parse time");
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lowered = fetchmech_frontend::parse(format, &src).map_err(|e| format!("{path}: {e}"))?;
    let machine = &opts.common.machine;
    let id = format!("prog-{:016x}", lowered.fingerprint());
    // A standalone workload, not a lab registration: the lab caps how many
    // external programs it holds, and one run may take any number of files.
    // `WorkloadSpec::external` seeds it exactly as the lab would.
    let name: &'static str = Box::leak(id.clone().into_boxed_str());
    let w = Workload {
        spec: WorkloadSpec::external(name),
        program: lowered.program.clone(),
        behaviors: lowered.behaviors.clone(),
    };
    let layout = Layout::natural(&w.program, LayoutOptions::new(machine.block_bytes))
        .map_err(|e| format!("{path}: natural layout failed: {e}"))?;
    let profile = Profile::collect(&w, &InputId::PROFILE, opts.common.insts);

    let mut human = format!(
        "{path} [{}, {}]: {id}, {} func(s), {} block(s), {} branch(es)\n",
        format.name(),
        machine.name,
        w.program.num_funcs(),
        w.program.num_blocks(),
        w.program.num_branches()
    );
    let mut fields: Vec<(&str, Value)> = vec![
        ("file", Value::Str(path.to_string())),
        ("format", Value::Str(format.name().to_string())),
        ("id", Value::Str(id.clone())),
        ("machine", Value::Str(machine.name.to_string())),
        ("funcs", Value::Uint(w.program.num_funcs() as u64)),
        ("blocks", Value::Uint(w.program.num_blocks() as u64)),
        ("branches", Value::Uint(w.program.num_branches() as u64)),
    ];

    // Default lint rules over the lowered CFG, its natural layout, and a
    // collected profile (flow conservation included).
    let registry = Registry::with_default_passes();
    let mut diags = Vec::new();
    let targets = [
        Target::Program(&w.program),
        Target::Layout {
            program: &w.program,
            layout: &layout,
        },
        Target::Profile {
            program: &w.program,
            profile: &profile,
            config: None,
        },
    ];
    for target in &targets {
        diags.extend(registry.run_filtered(target, |_| true));
    }

    if opts.verify {
        // Full opt pipeline under translation validation, then one
        // simulation per fetch scheme over the lowered program.
        let optimized = optimize(
            &w.program,
            &profile,
            &PassKind::ALL,
            &OptimizeConfig::default(),
        );
        diags.extend(verify_optimized(
            &w,
            &profile,
            &optimized,
            opts.common.insts,
        ));
        human += &format!(
            "  opt: {} -> {} block(s), translation-validated\n",
            w.program.num_blocks(),
            optimized.program.num_blocks()
        );
        let stream = Arc::new(w.block_stream(&layout, InputId::TEST, opts.common.insts));
        let mut schemes = Vec::new();
        for scheme in SchemeKind::ALL {
            let r = simulate(machine, scheme, &stream);
            if r.retired == 0 {
                return Err(format!("{path}: {} retired no instructions", scheme.name()));
            }
            human += &format!("    {:<12} EIR {:.3}\n", scheme.name(), r.eir());
            schemes.push(Value::object([
                ("scheme", Value::Str(scheme.name().to_string())),
                ("eir", Value::Num(r.eir())),
            ]));
        }
        fields.push(("schemes", Value::Array(schemes)));
    }

    if opts.dump {
        let text = fetchmech_frontend::dump(&lowered);
        human += &text;
        fields.push(("dump", Value::Str(text)));
    }

    diags.retain(|d| opts.common.keeps(d.rule_id));
    fields.push(("diagnostics", diagnostics_value(&diags)));
    Ok(AnalyzeReport {
        human,
        json: Value::object(fields),
        diags,
    })
}

fn frontend_main(args: &[String]) -> Result<ExitCode, ExitCode> {
    let opts = parsed(parse_frontend_args(args), frontend_usage())?;
    check_ids(&opts.common.disabled, rule_id_known, "rule", "--list")?;
    // Files are independent: fan out like the benchmark subcommands do.
    let runner = Runner::from_flag_or_env(opts.common.threads);
    let results = runner.run(&opts.files, |path| frontend_file(path, &opts));
    Ok(report_main(results, opts.common.json))
}

/// The default mode: every registered pass over each suite artifact.
fn lint_main(args: &[String]) -> Result<ExitCode, ExitCode> {
    let opts = parsed(parse_args(args), usage())?;
    let registry = Registry::with_default_passes();
    let passes = registry.passes();
    check_ids(
        &opts.passes,
        |name| passes.iter().any(|p| p.name() == name),
        "pass",
        "--list-passes",
    )?;
    check_ids(
        &opts.disabled,
        |rule| passes.iter().any(|p| p.rules().contains(&rule)),
        "rule",
        "--list",
    )?;
    // One benchmark at a time: the default mode has no `--threads`.
    let lab = cli_lab(opts.insts, Runner::new(1));
    let results = opts
        .benchmarks
        .iter()
        .map(|name| lint_benchmark(name, &lab, &opts, &registry))
        .collect();
    Ok(diagnostics_main(
        &opts.benchmarks,
        results,
        opts.json,
        opts.fail_at,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sanitize") => sanitize_main(&args[1..]),
        Some("analyze") => analyze_main(&args[1..]),
        Some("opt") => opt_main(&args[1..]),
        Some("frontend") => frontend_main(&args[1..]),
        _ => lint_main(&args),
    };
    result.unwrap_or_else(|code| code)
}
