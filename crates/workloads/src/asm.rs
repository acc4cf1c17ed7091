//! A small text assembler: hand-write programs (with branch-behaviour
//! annotations) instead of generating them.
//!
//! # Syntax
//!
//! ```text
//! ; comments run to end of line
//! func main                ; starts a function; its first block is the entry
//! block head
//!     alu  r1, r1          ; rd[, rs1[, rs2]]
//!     mul  r2, r1, r2
//!     ld   r3, [r2+8]      ; load rd, [raddr+imm]
//!     st   r3, [r2+12]     ; store rs, [raddr+imm]
//!     fadd f1, f2, f3
//!     nop
//!     br   r1 ? head : exit @loop=20    ; cond branch + behaviour
//! block exit
//!     call helper, return=done          ; helper = another function's name
//! block done
//!     halt
//!
//! func helper
//! block h0
//!     ret
//! ```
//!
//! Branch behaviour annotations (default `@p=0.5`):
//!
//! * `@p=0.7` — Bernoulli, taken edge followed with probability 0.7
//! * `@loop=20` — stochastic loop backedge, mean 20 trips
//! * `@fixed=8` — fixed-trip loop backedge, exactly 8 trips
//! * `@pattern=1101:0.05` — repeating outcome bits (LSB first in source
//!   order), flipped with probability 0.05
//!
//! The program's entry point is the entry block of the *first* function.

use std::collections::HashMap;
use std::fmt;

use fetchmech_isa::{BlockId, FuncId, Inst, OpClass, Program, ProgramBuilder, Reg, ValidateError};

use crate::behavior::{BehaviorMap, BranchModel};

/// A successfully-assembled program.
#[derive(Debug, Clone)]
pub struct AsmProgram {
    /// The control-flow graph.
    pub program: Program,
    /// Behaviour of every conditional branch (from the annotations).
    pub behaviors: BehaviorMap,
    /// Block label → id, for tests and tooling.
    pub labels: HashMap<String, BlockId>,
}

/// An assembly error, with the 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct AsmError {
    /// 1-based line number (0 for whole-program errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

impl From<ValidateError> for AsmError {
    fn from(e: ValidateError) -> Self {
        AsmError {
            line: 0,
            message: format!("invalid program: {e}"),
        }
    }
}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// What a block's terminator line said, before labels are resolvable.
#[derive(Debug, Clone)]
enum PendingTerm {
    Fall(String),
    Cond {
        srcs: [Option<Reg>; 2],
        taken: String,
        fall: String,
        model: BranchModel,
    },
    Jump(String),
    Call {
        func: String,
        return_to: String,
    },
    Ret,
    Halt,
}

#[derive(Debug)]
struct PendingBlock {
    line: usize,
    label: String,
    func: usize,
    insts: Vec<Inst>,
    term: Option<(usize, PendingTerm)>,
}

/// Parses assembly text into a program plus its branch behaviours.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown labels, duplicate labels, missing terminators, or structurally
/// invalid programs (e.g. a `call` to a label that is not a function entry).
pub fn parse_asm(src: &str) -> Result<AsmProgram, AsmError> {
    let mut funcs: Vec<String> = Vec::new();
    let mut blocks: Vec<PendingBlock> = Vec::new();

    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("func ") {
            let name = rest.trim();
            if name.is_empty() {
                return Err(err(line_no, "function needs a name"));
            }
            funcs.push(name.to_owned());
        } else if let Some(rest) = line.strip_prefix("block ") {
            let label = rest.trim();
            if label.is_empty() {
                return Err(err(line_no, "block needs a label"));
            }
            if funcs.is_empty() {
                return Err(err(line_no, "block before any `func`"));
            }
            if blocks.iter().any(|b| b.label == label) {
                return Err(err(line_no, format!("duplicate block label {label:?}")));
            }
            blocks.push(PendingBlock {
                line: line_no,
                label: label.to_owned(),
                func: funcs.len() - 1,
                insts: Vec::new(),
                term: None,
            });
        } else {
            let block = blocks
                .last_mut()
                .ok_or_else(|| err(line_no, "instruction before any `block`"))?;
            if block.term.is_some() {
                return Err(err(line_no, "instruction after the block's terminator"));
            }
            match parse_statement(line, line_no)? {
                Statement::Inst(i) => block.insts.push(i),
                Statement::Term(t) => block.term = Some((line_no, t)),
            }
        }
    }
    if blocks.is_empty() {
        return Err(err(0, "program has no blocks"));
    }

    // Build the program: functions in declaration order, blocks in source
    // order (natural layout = source order).
    let mut builder = ProgramBuilder::new();
    let func_ids: Vec<FuncId> = funcs.iter().map(|_| builder.begin_func()).collect();
    let mut labels: HashMap<String, BlockId> = HashMap::new();
    let mut func_entries: HashMap<String, BlockId> = HashMap::new();
    let mut func_entry_of: Vec<Option<BlockId>> = vec![None; funcs.len()];
    for pb in &blocks {
        let id = builder.new_block(func_ids[pb.func]);
        labels.insert(pb.label.clone(), id);
        if func_entry_of[pb.func].is_none() {
            func_entry_of[pb.func] = Some(id);
            func_entries.insert(funcs[pb.func].clone(), id);
        }
    }
    let mut models = Vec::new();
    for pb in &blocks {
        let id = labels[&pb.label];
        for inst in &pb.insts {
            builder.push_inst(id, *inst);
        }
        let (tline, term) = pb
            .term
            .as_ref()
            .ok_or_else(|| err(pb.line, format!("block {:?} has no terminator", pb.label)))?;
        let resolve = |label: &str| -> Result<BlockId, AsmError> {
            labels
                .get(label)
                .copied()
                .ok_or_else(|| err(*tline, format!("unknown block label {label:?}")))
        };
        use fetchmech_isa::Terminator as T;
        match term {
            PendingTerm::Fall(next) => {
                builder.set_terminator(
                    id,
                    T::FallThrough {
                        next: resolve(next)?,
                    },
                );
            }
            PendingTerm::Cond {
                srcs,
                taken,
                fall,
                model,
            } => {
                let branch = builder.set_cond_branch(id, *srcs, resolve(taken)?, resolve(fall)?);
                debug_assert_eq!(branch.0 as usize, models.len());
                models.push(*model);
            }
            PendingTerm::Jump(target) => {
                builder.set_terminator(
                    id,
                    T::Jump {
                        target: resolve(target)?,
                    },
                );
            }
            PendingTerm::Call { func, return_to } => {
                let callee = func_entries
                    .get(func)
                    .copied()
                    .ok_or_else(|| err(*tline, format!("unknown function {func:?}")))?;
                builder.set_terminator(
                    id,
                    T::Call {
                        callee,
                        return_to: resolve(return_to)?,
                    },
                );
            }
            PendingTerm::Ret => builder.set_terminator(id, T::Return),
            PendingTerm::Halt => builder.set_terminator(id, T::Halt),
        }
    }
    let entry = func_entry_of[0].ok_or_else(|| err(0, "first function has no blocks"))?;
    builder.set_entry(entry);
    let program = builder.finish()?;
    Ok(AsmProgram {
        program,
        behaviors: BehaviorMap::new(models),
        labels,
    })
}

enum Statement {
    Inst(Inst),
    Term(PendingTerm),
}

fn parse_statement(line: &str, ln: usize) -> Result<Statement, AsmError> {
    let (mnemonic, rest) = match line.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (line, ""),
    };
    let stmt = match mnemonic {
        "alu" | "mul" => {
            let op = if mnemonic == "alu" {
                OpClass::IntAlu
            } else {
                OpClass::IntMul
            };
            let (dest, srcs) = parse_reg_list(rest, ln)?;
            Statement::Inst(Inst::new(op, Some(dest), srcs))
        }
        "fadd" | "fmul" => {
            let op = if mnemonic == "fadd" {
                OpClass::FpAdd
            } else {
                OpClass::FpMul
            };
            let (dest, srcs) = parse_reg_list(rest, ln)?;
            Statement::Inst(Inst::new(op, Some(dest), srcs))
        }
        "ld" => {
            let (dest_s, mem) = rest
                .split_once(',')
                .ok_or_else(|| err(ln, "ld needs `rd, [raddr+imm]`"))?;
            let dest = parse_reg(dest_s.trim(), ln)?;
            let (base, imm) = parse_mem(mem.trim(), ln)?;
            Statement::Inst(Inst::new(OpClass::Load, Some(dest), [Some(base), None]).with_imm(imm))
        }
        "st" => {
            let (val_s, mem) = rest
                .split_once(',')
                .ok_or_else(|| err(ln, "st needs `rs, [raddr+imm]`"))?;
            let val = parse_reg(val_s.trim(), ln)?;
            let (base, imm) = parse_mem(mem.trim(), ln)?;
            Statement::Inst(Inst::new(OpClass::Store, None, [Some(val), Some(base)]).with_imm(imm))
        }
        "nop" => Statement::Inst(Inst::nop()),
        "br" => {
            // br r1[, r2] ? taken : fall [@annotation]
            let (cond, targets) = rest
                .split_once('?')
                .ok_or_else(|| err(ln, "br needs `srcs ? taken : fall`"))?;
            let mut srcs = [None, None];
            for (i, s) in cond
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .enumerate()
            {
                if i >= 2 {
                    return Err(err(ln, "br takes at most two source registers"));
                }
                srcs[i] = Some(parse_reg(s, ln)?);
            }
            let (labels_part, model) = match targets.split_once('@') {
                Some((l, anno)) => (
                    l,
                    BranchModel::parse_annotation(anno.trim()).map_err(|m| err(ln, m))?,
                ),
                None => (targets, BranchModel::Bernoulli(0.5)),
            };
            let (taken, fall) = labels_part
                .split_once(':')
                .ok_or_else(|| err(ln, "br needs `taken : fall` labels"))?;
            Statement::Term(PendingTerm::Cond {
                srcs,
                taken: taken.trim().to_owned(),
                fall: fall.trim().to_owned(),
                model,
            })
        }
        "jmp" => Statement::Term(PendingTerm::Jump(rest.trim().to_owned())),
        "fall" => Statement::Term(PendingTerm::Fall(rest.trim().to_owned())),
        "call" => {
            let (func, ret) = rest
                .split_once(',')
                .ok_or_else(|| err(ln, "call needs `func, return=label`"))?;
            let ret = ret
                .trim()
                .strip_prefix("return=")
                .ok_or_else(|| err(ln, "call needs `return=label`"))?;
            Statement::Term(PendingTerm::Call {
                func: func.trim().to_owned(),
                return_to: ret.trim().to_owned(),
            })
        }
        "ret" => Statement::Term(PendingTerm::Ret),
        "halt" => Statement::Term(PendingTerm::Halt),
        other => return Err(err(ln, format!("unknown mnemonic {other:?}"))),
    };
    Ok(stmt)
}

fn parse_reg(s: &str, ln: usize) -> Result<Reg, AsmError> {
    let (kind, num) = s.split_at(1.min(s.len()));
    let n: u8 = num
        .parse()
        .map_err(|_| err(ln, format!("bad register {s:?}")))?;
    match kind {
        "r" if n < 32 => Ok(Reg::int(n)),
        "f" if n < 32 => Ok(Reg::fp(n)),
        _ => Err(err(ln, format!("bad register {s:?}"))),
    }
}

fn parse_reg_list(rest: &str, ln: usize) -> Result<(Reg, [Option<Reg>; 2]), AsmError> {
    let mut parts = rest.split(',').map(str::trim).filter(|s| !s.is_empty());
    let dest = parse_reg(
        parts.next().ok_or_else(|| err(ln, "missing destination"))?,
        ln,
    )?;
    let mut srcs = [None, None];
    for (i, p) in parts.enumerate() {
        if i >= 2 {
            return Err(err(ln, "too many operands"));
        }
        srcs[i] = Some(parse_reg(p, ln)?);
    }
    Ok((dest, srcs))
}

fn parse_mem(s: &str, ln: usize) -> Result<(Reg, i8), AsmError> {
    let inner = s
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or_else(|| err(ln, format!("bad memory operand {s:?} (expected [rN+imm])")))?;
    let (reg_s, imm_s) = match inner.split_once('+') {
        Some((r, i)) => (r.trim(), Some(i.trim())),
        None => (inner.trim(), None),
    };
    let reg = parse_reg(reg_s, ln)?;
    let imm = match imm_s {
        Some(i) => i
            .parse()
            .map_err(|_| err(ln, format!("bad immediate {i:?}")))?,
        None => 0,
    };
    Ok((reg, imm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Executor, InputId};
    use fetchmech_isa::{Layout, LayoutOptions};

    const DEMO: &str = r"
; a loop with a hammock and a helper call
func main
block head
    alu  r1, r1
    br   r1 ? join : then @p=0.8
block then
    ld   r3, [r1+4]
    fall join
block join
    alu  r4, r1
    br   r4 ? head : out @fixed=10
block out
    call helper, return=done
block done
    halt

func helper
block h0
    st   r4, [r1+8]
    ret
";

    #[test]
    fn demo_assembles_and_executes() {
        let asm = parse_asm(DEMO).expect("valid assembly");
        assert_eq!(asm.program.num_funcs(), 2);
        assert_eq!(asm.program.num_branches(), 2);
        assert_eq!(asm.behaviors.len(), 2);
        let layout = Layout::natural(&asm.program, LayoutOptions::new(16)).expect("layout");
        let trace: Vec<_> = Executor::new(
            &asm.program,
            &layout,
            asm.behaviors.clone(),
            InputId::TEST,
            1,
            5_000,
        )
        .collect();
        assert_eq!(trace.len(), 5_000);
        // The loop runs 10 fixed trips; returns and halts appear.
        assert!(trace.iter().any(|i| i.op == OpClass::Return));
        assert!(trace.iter().any(|i| i.op == OpClass::Halt));
        for pair in trace.windows(2) {
            assert_eq!(pair[0].next_pc, pair[1].addr);
        }
    }

    #[test]
    fn annotations_map_to_models() {
        let src = r"
func main
block a
    br r1 ? a : b @loop=7.5
block b
    br r2 ? a : c @pattern=101:0.1
block c
    halt
";
        let asm = parse_asm(src).expect("valid");
        assert_eq!(
            asm.behaviors.model(fetchmech_isa::BranchId(0)),
            BranchModel::Loop { mean_trips: 7.5 }
        );
        assert_eq!(
            asm.behaviors.model(fetchmech_isa::BranchId(1)),
            BranchModel::Pattern {
                bits: 0b101,
                len: 3,
                noise: 0.1
            }
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            (
                "func main\nblock a\n    wat r1\n    halt",
                3,
                "unknown mnemonic",
            ),
            (
                "func main\nblock a\n    br r1 ? a : nowhere\nblock b\n    halt",
                3,
                "unknown block",
            ),
            (
                "func main\nblock a\n    alu r99\n    halt",
                3,
                "bad register",
            ),
            ("func main\nblock a\n    alu r1", 2, "no terminator"),
            ("block a\n    halt", 1, "before any `func`"),
            (
                "func main\nblock a\n    halt\nblock a\n    halt",
                4,
                "duplicate block label",
            ),
            (
                "func main\nblock a\n    br r1 ? a : a @p=7\n",
                3,
                "probability",
            ),
        ];
        for (src, line, needle) in cases {
            let e = parse_asm(src).expect_err(src);
            assert_eq!(e.line, *line, "{src:?} -> {e}");
            assert!(e.message.contains(needle), "{src:?} -> {e}");
        }
    }

    #[test]
    fn call_to_non_function_label_fails() {
        let src = r"
func main
block a
    call b, return=c
block b
    halt
block c
    halt
";
        // `b` is a block of main, not a function name.
        let e = parse_asm(src).expect_err("must fail");
        assert!(e.message.contains("unknown function"), "{e}");
    }

    #[test]
    fn memory_operands_parse() {
        let src = "func main\nblock a\n    ld r1, [r2+31]\n    st r1, [r2]\n    halt";
        let asm = parse_asm(src).expect("valid");
        let block = asm.program.block(asm.labels["a"]);
        assert_eq!(block.insts[0].imm, 31);
        assert_eq!(block.insts[1].imm, 0);
        assert_eq!(block.insts[1].srcs[0], Some(Reg::int(1)));
    }
}
