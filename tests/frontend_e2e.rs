//! End-to-end tests for the external-program frontend: every checked-in
//! example under `examples/programs/` parses, lowers to a valid program,
//! generates traces on both the per-instruction and block-stream paths,
//! profiles with clean flow conservation, survives the optimizer's
//! translation validation, and simulates on every fetch scheme. Plus:
//! content-hash determinism and stable error-path diagnostics.

use std::sync::Arc;

use fetchmech::compiler::{optimize, PassKind, Profile};
use fetchmech::isa::{Layout, LayoutOptions, OpClass};
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::{InputId, Workload, WorkloadSpec};
use fetchmech::{simulate, simulate_reference, SchemeKind};
use fetchmech_analysis::{has_errors, verify_optimized, verify_profile, verify_program, Severity};
use fetchmech_frontend::{parse, Format};

/// Every checked-in example program, with a static workload name.
const EXAMPLES: [(&str, Format, &str); 5] = [
    (
        "e2e-loopmix",
        Format::Bril,
        include_str!("../examples/programs/loopmix.bril.json"),
    ),
    (
        "e2e-branchy-bril",
        Format::Bril,
        include_str!("../examples/programs/branchy.bril.json"),
    ),
    (
        "e2e-callgraph",
        Format::Bril,
        include_str!("../examples/programs/callgraph.bril.json"),
    ),
    (
        "e2e-kernel",
        Format::Wat,
        include_str!("../examples/programs/kernel.wat"),
    ),
    (
        "e2e-branchy-wat",
        Format::Wat,
        include_str!("../examples/programs/branchy.wat"),
    ),
];

/// Short traces keep debug-mode runs (which execute the full cycle-level
/// sanitizer and the block-stream differential oracle) fast.
const INSTS: u64 = 4_000;

fn workload(name: &'static str, format: Format, src: &str) -> Workload {
    let lowered = parse(format, src).unwrap_or_else(|e| panic!("{name}: {e}"));
    Workload {
        spec: WorkloadSpec {
            seed: 0x5eed ^ name.len() as u64,
            ..WorkloadSpec::external(name)
        },
        program: lowered.program,
        behaviors: lowered.behaviors,
    }
}

fn natural_layout(w: &Workload, machine: &MachineModel) -> Layout {
    Layout::natural(&w.program, LayoutOptions::new(machine.block_bytes)).expect("natural layout")
}

#[test]
fn examples_lower_to_valid_programs_and_retire_on_every_scheme() {
    let machine = MachineModel::p14();
    let mut ops_seen = Vec::new();
    for (name, format, src) in EXAMPLES {
        let w = workload(name, format, src);
        let diags = verify_program(&w.program);
        assert!(
            !has_errors(&diags),
            "{name}: lowered program fails default lint rules: {diags:?}"
        );
        let layout = natural_layout(&w, &machine);
        let trace = w.block_stream(&layout, InputId::TEST, INSTS).materialize();
        assert_eq!(trace.len() as u64, INSTS, "{name}: trace truncated");
        for pair in trace.windows(2) {
            assert_eq!(pair[0].next_pc, pair[1].addr, "{name}: trace not linked");
        }
        ops_seen.extend(trace.iter().map(|i| i.op));
        for scheme in SchemeKind::ALL {
            let r = simulate(&machine, scheme, trace.clone());
            assert_eq!(r.retired, INSTS, "{name} on {scheme}: not all retired");
            assert!(r.ipc() > 0.0, "{name} on {scheme}: zero IPC");
        }
    }
    // The linkage check above covers every control-transfer kind.
    for op in [OpClass::Call, OpClass::Return, OpClass::Halt] {
        assert!(ops_seen.contains(&op), "no example trace contains {op:?}");
    }
}

#[test]
fn block_stream_fast_path_matches_per_instruction_path() {
    // The lowered programs must drive the PR-8 fast path unchanged; in
    // debug builds `simulate` additionally runs the differential oracle
    // against the sanitized per-instruction reference.
    let machine = MachineModel::p14();
    for (name, format, src) in EXAMPLES {
        let w = workload(name, format, src);
        let layout = natural_layout(&w, &machine);
        let stream = Arc::new(w.block_stream(&layout, InputId::TEST, INSTS));
        let trace = stream.materialize();
        for scheme in SchemeKind::ALL {
            let reference = simulate_reference(&machine, scheme, trace.clone());
            let fast = simulate(&machine, scheme, Arc::clone(&stream));
            assert_eq!(reference, fast, "{name} on {scheme}: paths diverge");
        }
    }
}

#[test]
fn example_profiles_conserve_flow() {
    for (name, format, src) in EXAMPLES {
        let w = workload(name, format, src);
        let profile = Profile::collect(&w, &InputId::PROFILE, INSTS);
        let diags = verify_profile(&w.program, &profile);
        assert!(
            !has_errors(&diags),
            "{name}: profile fails flow conservation: {diags:?}"
        );
    }
}

#[test]
fn examples_survive_the_full_optimizer_with_translation_validation() {
    for (name, format, src) in EXAMPLES {
        let w = workload(name, format, src);
        let profile = Profile::collect(&w, &InputId::PROFILE, INSTS);
        let optimized = optimize(&w.program, &profile, &PassKind::ALL);
        let diags = verify_optimized(&w, &profile, &optimized, INSTS);
        assert!(
            !has_errors(&diags),
            "{name}: translation validation failed: {diags:?}"
        );
    }
}

#[test]
fn fingerprints_are_deterministic_and_distinct() {
    let mut seen = Vec::new();
    for (name, format, src) in EXAMPLES {
        let a = parse(format, src).expect(name).fingerprint();
        let b = parse(format, src).expect(name).fingerprint();
        assert_eq!(a, b, "{name}: fingerprint must be deterministic");
        assert!(
            !seen.contains(&a),
            "{name}: fingerprint collides with another example"
        );
        seen.push(a);
    }
}

#[test]
fn dump_names_every_qualified_label() {
    for (name, format, src) in EXAMPLES {
        let lowered = parse(format, src).expect(name);
        let dump = fetchmech_frontend::dump(&lowered);
        for label in lowered.labels.keys() {
            assert!(
                dump.contains(&format!("{label}:")),
                "{name}: dump misses label {label}"
            );
        }
    }
}

#[test]
fn bril_error_paths_have_stable_diagnostics() {
    let cases: [(&str, &str); 6] = [
        (r#"{"functions": []}"#, "\"functions\" must not be empty"),
        (
            r#"{"functions": [{"name": "main", "instrs": [
                {"op": "frobnicate"},
                {"op": "ret"}
            ]}]}"#,
            "unknown op \"frobnicate\"",
        ),
        (
            r#"{"functions": [{"name": "main", "instrs": [
                {"op": "add", "dest": "x", "args": ["x", "y"]},
                {"op": "ret"}
            ]}]}"#,
            "undefined variable",
        ),
        (
            r#"{"functions": [{"name": "main", "instrs": [
                {"op": "const", "dest": "c", "value": 1},
                {"op": "br", "args": ["c"], "labels": ["nowhere", "also"]},
                {"label": "also"},
                {"op": "ret"}
            ]}]}"#,
            "nowhere",
        ),
        (
            r#"{"functions": [{"name": "main", "instrs": [
                {"op": "call", "funcs": ["nowhere"]},
                {"op": "ret"}
            ]}]}"#,
            "unknown function \"nowhere\"",
        ),
        (
            r#"{"functions": [{"name": "main", "instrs": [
                {"label": "a"},
                {"op": "nop"},
                {"label": "a"},
                {"op": "ret"}
            ]}]}"#,
            "duplicate block label \"a\"",
        ),
    ];
    for (src, needle) in cases {
        let e = parse(Format::Bril, src).expect_err("must be rejected");
        assert!(e.to_string().contains(needle), "missing {needle:?} in: {e}");
    }
    // Instruction coordinates survive to the message.
    let e = parse(
        Format::Bril,
        r#"{"functions": [{"name": "main", "instrs": [{"op": "frobnicate"}]}]}"#,
    )
    .expect_err("must be rejected");
    assert!(
        e.to_string().contains("function \"main\", instruction 0"),
        "missing coordinates in: {e}"
    );
}

#[test]
fn wat_error_paths_have_stable_line_numbered_diagnostics() {
    // Folded expressions are rejected with a how-to-fix hint.
    let folded =
        "(module\n  (func $main\n    (i32.add (i32.const 1) (i32.const 2))\n    return\n  )\n)";
    let e = parse(Format::Wat, folded).expect_err("folded must be rejected");
    let msg = e.to_string();
    assert!(
        msg.contains("folded expressions are not supported"),
        "{msg}"
    );
    assert!(msg.starts_with("line 3:"), "wrong line in: {msg}");

    // Branching to a label with no enclosing frame.
    let stray = "(module\n  (func $main\n    i32.const 1\n    br_if $nowhere\n    return\n  )\n)";
    let e = parse(Format::Wat, stray).expect_err("stray br_if must be rejected");
    let msg = e.to_string();
    assert!(
        msg.contains("no enclosing block/loop labeled $nowhere"),
        "{msg}"
    );
    assert!(msg.starts_with("line 4:"), "wrong line in: {msg}");

    // An annotation with nothing to attach to.
    let orphan = "(module\n  (func $main\n    ;; @p=0.5\n    return\n  )\n)";
    let e = parse(Format::Wat, orphan).expect_err("orphan annotation must be rejected");
    assert!(
        e.to_string()
            .contains("behaviour annotation with no preceding br_if"),
        "{e}"
    );
}

#[test]
fn lowered_programs_produce_no_error_severity_diagnostics_anywhere() {
    // Belt-and-braces over the whole default registry: program, layout, and
    // profile targets together (the same gauntlet `fetchmech-lint frontend`
    // runs), asserting not a single Error-severity diagnostic.
    let machine = MachineModel::p14();
    for (name, format, src) in EXAMPLES {
        let w = workload(name, format, src);
        let layout = natural_layout(&w, &machine);
        let profile = Profile::collect(&w, &InputId::PROFILE, INSTS);
        let mut diags = verify_program(&w.program);
        diags.extend(fetchmech_analysis::verify_layout(&w.program, &layout));
        diags.extend(verify_profile(&w.program, &profile));
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(errors.is_empty(), "{name}: {errors:?}");
    }
}
