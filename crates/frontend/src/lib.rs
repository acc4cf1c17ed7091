//! External-program frontends for the fetchmech simulator.
//!
//! The rest of the workspace studies fetch mechanisms over *synthetic*
//! workloads calibrated to the paper's benchmark suite. This crate opens
//! that world up: it parses small external programs — a Bril-style JSON
//! CFG form ([`Format::Bril`]) and a flat WebAssembly-text subset
//! ([`Format::Wat`]) —
//! validates them, and lowers them to a `fetchmech-isa`
//! [`Program`](fetchmech_isa::Program) plus a
//! [`BehaviorMap`](fetchmech_workloads::BehaviorMap), so the existing
//! trace generator, lint rules, optimizer, and fetch-scheme simulations
//! run on uploaded programs unchanged.
//!
//! Behaviour is the one thing an external format cannot carry natively:
//! the simulator needs to know how often each conditional branch is taken.
//! Both frontends accept one annotation grammar
//! ([`BranchModel::parse_annotation`](fetchmech_workloads::BranchModel::parse_annotation):
//! `p=…`, `loop=…`, `fixed=…`, `pattern=bits:noise`) — as extra JSON
//! fields on Bril `br` instructions, and as `;; @…` comments after WAT
//! `br_if` — defaulting to an even coin flip.
//!
//! # Examples
//!
//! ```
//! use fetchmech_frontend::{parse, Format};
//!
//! let src = r#"{"functions": [{"name": "main", "instrs": [
//!     {"op": "const", "dest": "n", "value": 8},
//!     {"label": "head"},
//!     {"op": "add", "dest": "n", "args": ["n", "n"]},
//!     {"op": "br", "args": ["n"], "labels": ["head", "done"], "trips": 6},
//!     {"label": "done"},
//!     {"op": "ret"}
//! ]}]}"#;
//! let lowered = parse(Format::Bril, src).unwrap();
//! assert_eq!(lowered.program.num_branches(), 1);
//! assert!(lowered.labels.contains_key("main.head"));
//! ```

mod bril;
mod ir;
mod wat;

pub use ir::{FrontendError, LoweredProgram};

/// The external program formats the frontend understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Bril-style JSON CFG (`.bril.json` / `.json`).
    Bril,
    /// Flat WebAssembly text subset (`.wat`).
    Wat,
}

impl Format {
    /// The canonical lower-case name (`"bril"` / `"wat"`), as used by the
    /// serve API and CLI.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Format::Bril => "bril",
            Format::Wat => "wat",
        }
    }

    /// Picks the format from a file name, by extension: `.wat` is WAT,
    /// `.json` (including `.bril.json`) is Bril.
    #[must_use]
    pub fn for_path(path: &str) -> Option<Format> {
        let lower = path.to_ascii_lowercase();
        if lower.ends_with(".wat") {
            Some(Format::Wat)
        } else if lower.ends_with(".json") {
            Some(Format::Bril)
        } else {
            None
        }
    }
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "bril" => Ok(Format::Bril),
            "wat" => Ok(Format::Wat),
            other => Err(format!(
                "unknown format {other:?} (expected \"bril\" or \"wat\")"
            )),
        }
    }
}

/// Parses and lowers an external program.
///
/// This is the crate's front door: on success the result carries a
/// validated CFG, one behaviour model per conditional branch, and a
/// `func.label` → block map.
///
/// # Errors
///
/// Returns a [`FrontendError`] with a stable, user-facing message — a
/// source line number for WAT, `function "f", instruction N` coordinates
/// for Bril — on any syntax, reference, or type problem.
pub fn parse(format: Format, src: &str) -> Result<LoweredProgram, FrontendError> {
    let module = match format {
        Format::Bril => bril::parse(src)?,
        Format::Wat => wat::parse(src)?,
    };
    ir::lower(&module)
}

/// Renders a lowered program as assembler-style text: one line per
/// instruction, labels, behaviour annotations on branches. For humans
/// (`fetchmech-lint frontend --dump`), not for round-tripping.
#[must_use]
pub fn dump(lowered: &LoweredProgram) -> String {
    use fetchmech_isa::{BlockId, Terminator};
    use fetchmech_workloads::BranchModel;
    use std::fmt::Write as _;

    // Invert the label map for display.
    let mut names: Vec<Option<&str>> = vec![None; lowered.program.num_blocks()];
    for (name, id) in &lowered.labels {
        names[id.0 as usize] = Some(name);
    }
    let name_of = |id: BlockId| -> String {
        names[id.0 as usize].map_or_else(|| format!("{id}"), str::to_owned)
    };

    let mut out = String::new();
    for block in lowered.program.blocks() {
        let _ = writeln!(out, "{}:", name_of(block.id));
        for inst in &block.insts {
            let _ = write!(out, "    {}", inst.op.mnemonic());
            if let Some(d) = inst.dest {
                let _ = write!(out, " {d}");
            }
            for s in inst.srcs.iter().flatten() {
                let _ = write!(out, " {s}");
            }
            if inst.imm != 0 {
                let _ = write!(out, " #{}", inst.imm);
            }
            let _ = writeln!(out);
        }
        match block.terminator {
            Terminator::FallThrough { next } => {
                let _ = writeln!(out, "    fall {}", name_of(next));
            }
            Terminator::CondBranch {
                id, taken, fall, ..
            } => {
                let anno = match lowered.behaviors.model(id) {
                    BranchModel::Bernoulli(p) => format!("@p={p}"),
                    BranchModel::Loop { mean_trips } => format!("@loop={mean_trips}"),
                    BranchModel::FixedLoop { trips } => format!("@fixed={trips}"),
                    BranchModel::Pattern { bits, len, noise } => {
                        let mut s = String::new();
                        for i in 0..len {
                            s.push(if bits >> i & 1 == 1 { '1' } else { '0' });
                        }
                        format!("@pattern={s}:{noise}")
                    }
                };
                let _ = writeln!(out, "    br {} {} {anno}", name_of(taken), name_of(fall));
            }
            Terminator::Jump { target } => {
                let _ = writeln!(out, "    jmp {}", name_of(target));
            }
            Terminator::Call { callee, return_to } => {
                let _ = writeln!(
                    out,
                    "    call {} -> {}",
                    name_of(callee),
                    name_of(return_to)
                );
            }
            Terminator::Return => {
                let _ = writeln!(out, "    ret");
            }
            Terminator::Halt => {
                let _ = writeln!(out, "    halt");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_isa::Terminator;

    const LOOP_BRIL: &str = r#"{"functions": [{"name": "main", "instrs": [
        {"op": "const", "dest": "i", "value": 0},
        {"label": "head"},
        {"op": "add", "dest": "i", "args": ["i", "i"]},
        {"op": "lt", "dest": "c", "args": ["i", "i"]},
        {"op": "br", "args": ["c"], "labels": ["head", "exit"], "trips": 12},
        {"label": "exit"},
        {"op": "ret"}
    ]}]}"#;

    const LOOP_WAT: &str = r#"(module
      (func $main (local $i i32)
        i32.const 0
        local.set $i
        loop $head
          local.get $i
          i32.const 1
          i32.add
          local.tee $i
          br_if $head ;; @loop=12
        end
      )
    )"#;

    #[test]
    fn bril_and_wat_lower_to_equivalent_shapes() {
        for (format, src) in [(Format::Bril, LOOP_BRIL), (Format::Wat, LOOP_WAT)] {
            let lowered = parse(format, src).unwrap();
            assert_eq!(lowered.program.num_branches(), 1, "{format:?}");
            assert_eq!(lowered.behaviors.len(), 1, "{format:?}");
            // main's return lowers to halt so the trace generator restarts.
            assert!(
                lowered
                    .program
                    .blocks()
                    .iter()
                    .any(|b| b.terminator == Terminator::Halt),
                "{format:?}"
            );
        }
    }

    #[test]
    fn format_detection_and_names() {
        assert_eq!(Format::for_path("a/b/x.bril.json"), Some(Format::Bril));
        assert_eq!(Format::for_path("x.WAT"), Some(Format::Wat));
        assert_eq!(Format::for_path("x.txt"), None);
        assert_eq!("bril".parse::<Format>().unwrap(), Format::Bril);
        assert!("asm".parse::<Format>().is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_behavior_sensitive() {
        let a = parse(Format::Bril, LOOP_BRIL).unwrap();
        let b = parse(Format::Bril, LOOP_BRIL).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let tweaked = LOOP_BRIL.replace("12", "13");
        let c = parse(Format::Bril, &tweaked).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn dump_mentions_labels_and_annotations() {
        let lowered = parse(Format::Bril, LOOP_BRIL).unwrap();
        let text = dump(&lowered);
        assert!(text.contains("main.head:"), "{text}");
        assert!(text.contains("@loop=12"), "{text}");
        assert!(text.contains("halt"), "{text}");
    }

    #[test]
    fn bril_errors_carry_context() {
        let bad = r#"{"functions": [{"name": "main", "instrs": [
            {"op": "jmp", "labels": ["nowhere"]}
        ]}]}"#;
        let e = parse(Format::Bril, bad).unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("\"nowhere\""), "{e}");
        assert!(e.message.contains("\"main\""), "{e}");

        let undef = r#"{"functions": [{"name": "main", "instrs": [
            {"op": "add", "dest": "x", "args": ["y", "y"]},
            {"op": "ret"}
        ]}]}"#;
        let e = parse(Format::Bril, undef).unwrap_err();
        assert!(e.message.contains("undefined variable"), "{e}");
        assert!(e.message.contains("instruction 0"), "{e}");
    }

    #[test]
    fn bril_type_errors_are_stable() {
        let bad = r#"{"functions": [{"name": "main", "instrs": [
            {"op": "const", "dest": "x", "type": "float", "value": 1},
            {"op": "add", "dest": "y", "args": ["x", "x"]},
            {"op": "ret"}
        ]}]}"#;
        let e = parse(Format::Bril, bad).unwrap_err();
        assert!(e.message.contains("type error"), "{e}");
    }

    #[test]
    fn wat_errors_carry_line_numbers() {
        let bad = "(module\n  (func $main\n    br_if $nope\n  )\n)";
        let e = parse(Format::Wat, bad).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("$nope"), "{e}");

        let folded = "(module\n  (func $main\n    (i32.add (i32.const 1) (i32.const 2))\n  )\n)";
        let e = parse(Format::Wat, folded).unwrap_err();
        assert!(e.message.contains("folded"), "{e}");

        let numeric = "(module\n  (func $main\n    block $b\n      i32.const 1\n      br_if 0\n    end\n  )\n)";
        let e = parse(Format::Wat, numeric).unwrap_err();
        assert!(e.message.contains("numeric branch targets"), "{e}");
    }

    #[test]
    fn wat_underflow_and_unreachable_are_diagnosed() {
        let underflow = "(module\n  (func $main\n    i32.add\n  )\n)";
        let e = parse(Format::Wat, underflow).unwrap_err();
        assert!(e.message.contains("underflow"), "{e}");

        let unreachable = "(module\n  (func $main\n    return\n    nop\n  )\n)";
        let e = parse(Format::Wat, unreachable).unwrap_err();
        assert!(e.message.contains("unreachable"), "{e}");
    }

    #[test]
    fn wat_calls_and_blocks_lower() {
        let src = r#"(module
          (func $main
            block $exit
              i32.const 1
              br_if $exit ;; @p=0.25
              call $leaf
            end
          )
          (func $leaf
            nop
          )
        )"#;
        let lowered = parse(Format::Wat, src).unwrap();
        assert_eq!(lowered.program.num_funcs(), 2);
        assert!(lowered
            .program
            .blocks()
            .iter()
            .any(|b| matches!(b.terminator, Terminator::Call { .. })));
        assert!(lowered
            .program
            .blocks()
            .iter()
            .any(|b| b.terminator == Terminator::Return));
    }

    #[test]
    fn lowered_programs_execute() {
        use fetchmech_isa::{Layout, LayoutOptions};
        use fetchmech_workloads::{InputId, Workload, WorkloadSpec};

        for (format, src) in [(Format::Bril, LOOP_BRIL), (Format::Wat, LOOP_WAT)] {
            let lowered = parse(format, src).unwrap();
            let layout = Layout::natural(&lowered.program, LayoutOptions::new(16)).unwrap();
            let w = Workload {
                spec: WorkloadSpec::external("lowered"),
                program: lowered.program,
                behaviors: lowered.behaviors,
            };
            let retired = w.block_stream(&layout, InputId(0), 2_000).total_insts();
            assert!(retired >= 2_000, "{format:?}: retired {retired}");
        }
    }
}
