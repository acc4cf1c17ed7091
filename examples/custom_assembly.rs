//! Write a program by hand as Bril JSON, annotate its branch behaviour, and
//! measure how each fetch mechanism copes with it.
//!
//! The program goes through the same path as `fetchmech-lint frontend` and
//! `POST /v1/programs`: the frontend lowers it, the workload generates one
//! block stream from its natural layout, and every scheme simulates that
//! stream.
//!
//! ```text
//! cargo run --release --example custom_assembly
//! ```

use std::sync::Arc;

use fetchmech::isa::{disasm, Layout, LayoutOptions};
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::{InputId, Workload, WorkloadSpec};
use fetchmech::{simulate, SchemeKind};
use fetchmech_frontend::{parse, Format};

/// A hot loop whose body is a chain of two hammocks — the collapsing
/// buffer's favourite food — plus a rarely-called slow path.
const PROGRAM: &str = r#"{"functions": [
  {"name": "main", "instrs": [
    {"op": "const", "dest": "x", "value": 1},
    {"op": "const", "dest": "y", "value": 2},
    {"op": "const", "dest": "p", "value": 64},
    {"label": "head"},
    {"op": "id", "dest": "c1", "args": ["x"]},
    {"op": "br", "args": ["c1"], "labels": ["mid", "skip1"], "p": 0.85},
    {"label": "skip1"},
    {"op": "id", "dest": "t", "args": ["y"]},
    {"label": "mid"},
    {"op": "load", "dest": "v", "args": ["p"]},
    {"op": "id", "dest": "c2", "args": ["y"]},
    {"op": "br", "args": ["c2"], "labels": ["tail", "skip2"], "p": 0.85},
    {"label": "skip2"},
    {"op": "mul", "dest": "m", "args": ["x", "y"]},
    {"label": "tail"},
    {"op": "id", "dest": "u", "args": ["p"]},
    {"op": "store", "args": ["p", "v"]},
    {"op": "br", "args": ["u"], "labels": ["head", "cold"], "fixed": 40},
    {"label": "cold"},
    {"op": "call", "funcs": ["slowpath"]},
    {"op": "br", "args": ["c1"], "labels": ["head", "out"], "p": 0.95},
    {"label": "out"},
    {"op": "ret"}
  ]},
  {"name": "slowpath", "args": [{"name": "a", "type": "float"}, {"name": "b", "type": "float"}],
   "instrs": [
    {"op": "fadd", "dest": "s", "type": "float", "args": ["a", "b"]},
    {"op": "fmul", "dest": "a", "type": "float", "args": ["s", "s"]},
    {"op": "ret"}
  ]}
]}"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lowered = parse(Format::Bril, PROGRAM)?;
    let w = Workload {
        spec: WorkloadSpec::external("custom_assembly"),
        program: lowered.program,
        behaviors: lowered.behaviors,
    };
    let machine = MachineModel::p112();
    let layout = Layout::natural(&w.program, LayoutOptions::new(machine.block_bytes))?;

    println!(
        "lowered {} blocks, {} branches:",
        w.program.num_blocks(),
        w.program.num_branches()
    );
    for inst in layout.code() {
        let bar = if inst.addr.offset_words(machine.block_bytes) == 0 {
            "|"
        } else {
            " "
        };
        println!("  {bar} {}", disasm(inst));
    }

    // One dynamic trace, generated once in run-length form and shared by
    // every scheme.
    let stream = Arc::new(w.block_stream(&layout, InputId::TEST, 100_000));
    println!(
        "\n{:<14} {:>6} {:>6} {:>10}",
        "scheme", "IPC", "EIR", "collapsed"
    );
    for scheme in SchemeKind::ALL {
        let r = simulate(&machine, scheme, &stream);
        println!(
            "{:<14} {:>6.3} {:>6.3} {:>10}",
            scheme.name(),
            r.ipc(),
            r.eir(),
            r.fetch.collapsed
        );
    }
    Ok(())
}
