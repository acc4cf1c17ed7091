//! Bril-style JSON CFG frontend.
//!
//! Accepts the classic Bril program shape — `{"functions": [{"name", "args",
//! "instrs"}]}` where `instrs` interleaves `{"label": ...}` markers with
//! operation objects — and lowers it to the frontend [`Module`] IR.
//!
//! Differences from upstream Bril, all deliberate:
//!
//! * Values are abstract: `const` materializes a register (the numeric
//!   `value` survives only as the instruction immediate), and arithmetic is
//!   classified by op class, not computed.
//! * Conditional `br` takes optional behaviour fields (`"p"`, `"trips"`,
//!   `"fixed"`, `"pattern"`) describing how often the first label is taken;
//!   without one the branch is an even coin flip.
//! * `call` ends the block (the ISA models calls as block terminators); the
//!   remaining instructions continue in a synthesized `<label>.retN` block.
//!
//! Bril JSON has no useful line numbers, so diagnostics carry
//! `function "name", instruction N` coordinates in the message instead.

use std::collections::HashMap;

use fetchmech::json::{self, Value};
use fetchmech_isa::{Inst, OpClass, Reg};
use fetchmech_workloads::BranchModel;

use crate::ir::{err, BlockIr, FrontendError, FuncIr, Module, Term};

/// Register files a frontend variable can live in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarKind {
    Int,
    Fp,
}

/// Per-function variable environment: first-seen allocation into `r1..r31`
/// (integers) and `f1..f31` (floats), wrapping modulo 31 when a function
/// defines more variables than the file holds. Aliasing under wraparound is
/// acceptable — the simulator models dependence shape, not values.
#[derive(Debug, Default)]
struct VarEnv {
    vars: HashMap<String, (VarKind, Reg)>,
    next_int: u8,
    next_fp: u8,
}

impl VarEnv {
    fn define(&mut self, name: &str, kind: VarKind) -> Reg {
        if let Some(&(k, reg)) = self.vars.get(name) {
            if k == kind {
                return reg;
            }
        }
        let reg = match kind {
            VarKind::Int => {
                let r = Reg::int(1 + self.next_int % 31);
                self.next_int = self.next_int.wrapping_add(1);
                r
            }
            VarKind::Fp => {
                let r = Reg::fp(1 + self.next_fp % 31);
                self.next_fp = self.next_fp.wrapping_add(1);
                r
            }
        };
        self.vars.insert(name.to_owned(), (kind, reg));
        reg
    }

    fn get(&self, name: &str) -> Option<(VarKind, Reg)> {
        self.vars.get(name).copied()
    }
}

/// Parses Bril-style JSON into the frontend module IR.
pub(crate) fn parse(src: &str) -> Result<Module, FrontendError> {
    let root = json::parse(src).map_err(|e| err(0, e.to_string()))?;
    let funcs_v = root
        .get("functions")
        .ok_or_else(|| err(0, "top-level object needs a \"functions\" array"))?;
    let funcs_v = funcs_v
        .as_array()
        .ok_or_else(|| err(0, "\"functions\" must be an array"))?;
    if funcs_v.is_empty() {
        return Err(err(0, "\"functions\" must not be empty"));
    }
    let mut module = Module::default();
    for f in funcs_v {
        module.funcs.push(parse_func(f)?);
    }
    Ok(module)
}

fn parse_func(f: &Value) -> Result<FuncIr, FrontendError> {
    let name = f
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| err(0, "function needs a string \"name\""))?
        .to_owned();
    let ctx = |i: usize, msg: &str| -> FrontendError {
        err(0, format!("function {name:?}, instruction {i}: {msg}"))
    };
    let mut env = VarEnv::default();
    if let Some(params) = f.get("args").and_then(Value::as_array) {
        for p in params {
            let pname = p
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| err(0, format!("function {name:?}: parameter needs a \"name\"")))?;
            env.define(pname, var_kind(p.get("type")));
        }
    }
    let instrs = f
        .get("instrs")
        .and_then(Value::as_array)
        .ok_or_else(|| err(0, format!("function {name:?} needs an \"instrs\" array")))?;

    let mut blocks: Vec<BlockIr> = Vec::new();
    let mut current: Option<BlockIr> = None;
    let mut synth = 0usize;
    let open = |label: String, blocks: &mut Vec<BlockIr>, current: &mut Option<BlockIr>| {
        if let Some(mut b) = current.take() {
            // Implicit fall-through at a label boundary.
            if b.term.is_none() {
                b.term = Some((0, Term::Fall(label.clone())));
            }
            blocks.push(b);
        }
        *current = Some(BlockIr {
            line: 0,
            label,
            insts: Vec::new(),
            term: None,
        });
    };
    open("entry".to_owned(), &mut blocks, &mut current);

    for (i, instr) in instrs.iter().enumerate() {
        if let Some(label) = instr.get("label").and_then(Value::as_str) {
            open(label.to_owned(), &mut blocks, &mut current);
            continue;
        }
        let op = instr
            .get("op")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx(i, "instruction needs an \"op\" or \"label\""))?;
        let block = current.as_mut().expect("a block is always open");
        if block.term.is_some() {
            return Err(ctx(i, "unreachable instruction after a terminator"));
        }
        match op {
            "br" => {
                let cond = one_arg(instr).ok_or_else(|| ctx(i, "br needs 1 arg"))?;
                let (_, reg) = env
                    .get(cond)
                    .ok_or_else(|| ctx(i, &format!("undefined variable {cond:?}")))?;
                let labels = label_list(instr);
                if labels.len() != 2 {
                    return Err(ctx(i, "br needs exactly 2 labels"));
                }
                let (taken, fall) = (labels[0], labels[1]);
                let model = branch_model(instr).map_err(|m| ctx(i, &m))?;
                block.term = Some((
                    0,
                    Term::Cond {
                        srcs: [Some(reg), None],
                        taken: taken.to_owned(),
                        fall: fall.to_owned(),
                        model,
                    },
                ));
            }
            "jmp" => {
                let labels = label_list(instr);
                if labels.len() != 1 {
                    return Err(ctx(i, "jmp needs exactly 1 label"));
                }
                block.term = Some((0, Term::Jump(labels[0].to_owned())));
            }
            "ret" => block.term = Some((0, Term::Ret)),
            "call" => {
                let callee = instr
                    .get("funcs")
                    .and_then(Value::as_array)
                    .and_then(|a| a.first())
                    .and_then(Value::as_str)
                    .ok_or_else(|| ctx(i, "call needs a \"funcs\" list with 1 name"))?;
                if let Some(dest) = instr.get("dest").and_then(Value::as_str) {
                    // A call result is a fresh definition in the caller.
                    env.define(dest, var_kind(instr.get("type")));
                }
                let return_to = format!("{}.ret{synth}", block.label);
                synth += 1;
                block.term = Some((
                    0,
                    Term::Call {
                        callee: callee.to_owned(),
                        return_to: return_to.clone(),
                    },
                ));
                open(return_to, &mut blocks, &mut current);
            }
            _ => {
                let inst = lower_value_op(op, instr, &mut env).map_err(|m| ctx(i, &m))?;
                block.insts.push(inst);
            }
        }
    }
    if let Some(mut b) = current.take() {
        if b.term.is_none() {
            // Bril functions may simply end; that is a return.
            b.term = Some((0, Term::Ret));
        }
        blocks.push(b);
    }
    Ok(FuncIr {
        name,
        line: 0,
        blocks,
    })
}

/// Classifies a Bril `"type"` field: `float`/`double` live in the FP file,
/// everything else (int, bool, pointers) in the integer file.
fn var_kind(ty: Option<&Value>) -> VarKind {
    match ty.and_then(Value::as_str) {
        Some("float" | "double") => VarKind::Fp,
        _ => VarKind::Int,
    }
}

fn one_arg(instr: &Value) -> Option<&str> {
    let args = instr.get("args")?.as_array()?;
    match args {
        [a] => a.as_str(),
        _ => None,
    }
}

fn label_list(instr: &Value) -> Vec<&str> {
    instr
        .get("labels")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_str).collect())
        .unwrap_or_default()
}

/// Reads the optional behaviour fields off a `br` instruction.
fn branch_model(instr: &Value) -> Result<BranchModel, String> {
    if let Some(p) = instr.get("p") {
        let p = p.as_f64().ok_or("\"p\" must be a number")?;
        if !(0.0..=1.0).contains(&p) {
            return Err("\"p\" must be in [0, 1]".to_owned());
        }
        return Ok(BranchModel::Bernoulli(p));
    }
    if let Some(t) = instr.get("trips") {
        let m = t.as_f64().ok_or("\"trips\" must be a number")?;
        if m < 1.0 {
            return Err("\"trips\" must be >= 1".to_owned());
        }
        return Ok(BranchModel::Loop { mean_trips: m });
    }
    if let Some(t) = instr.get("fixed") {
        let t = t
            .as_u64()
            .filter(|&t| t >= 1)
            .ok_or("\"fixed\" must be an integer >= 1")?;
        return Ok(BranchModel::FixedLoop { trips: t });
    }
    if let Some(p) = instr.get("pattern") {
        let spec = p
            .as_str()
            .ok_or("\"pattern\" must be a \"bits:noise\" string")?;
        return BranchModel::parse_annotation(&format!("pattern={spec}"));
    }
    Ok(BranchModel::Bernoulli(0.5))
}

/// Lowers a non-control Bril operation to one ISA instruction.
fn lower_value_op(op: &str, instr: &Value, env: &mut VarEnv) -> Result<Inst, String> {
    let args: Vec<&str> = instr
        .get("args")
        .and_then(Value::as_array)
        .map(|a| a.iter().filter_map(Value::as_str).collect())
        .unwrap_or_default();
    let dest_name = instr.get("dest").and_then(Value::as_str);
    let ty = var_kind(instr.get("type"));

    // `const` defines its destination out of thin air; the value survives
    // only as the (clamped) immediate.
    if op == "const" {
        let dest_name = dest_name.ok_or("const needs a \"dest\"")?;
        let dest = env.define(dest_name, ty);
        let class = if ty == VarKind::Fp {
            OpClass::FpAdd
        } else {
            OpClass::IntAlu
        };
        let imm = instr.get("value").and_then(Value::as_f64).map_or(0i8, |v| {
            v.clamp(f64::from(i8::MIN), f64::from(i8::MAX)) as i8
        });
        return Ok(Inst::new(class, Some(dest), [None, None]).with_imm(imm));
    }

    let (class, wants, defines) = match op {
        "add" | "sub" | "and" | "or" | "xor" | "shl" | "shr" | "eq" | "lt" | "le" | "gt" | "ge"
        | "not" | "id" | "alu" => (OpClass::IntAlu, VarKind::Int, true),
        "mul" | "div" => (OpClass::IntMul, VarKind::Int, true),
        "fadd" | "fsub" => (OpClass::FpAdd, VarKind::Fp, true),
        "fmul" | "fdiv" => (OpClass::FpMul, VarKind::Fp, true),
        "load" | "ld" => (OpClass::Load, VarKind::Int, true),
        "store" | "st" => (OpClass::Store, VarKind::Int, false),
        "nop" => return Ok(Inst::nop()),
        // `print` reads its args and produces nothing the pipeline tracks.
        "print" => (OpClass::IntAlu, VarKind::Int, false),
        _ => return Err(format!("unknown op {op:?}")),
    };

    if args.len() > 2 {
        return Err(format!("{op} takes at most 2 args, got {}", args.len()));
    }
    let mut srcs = [None, None];
    for (slot, a) in args.iter().enumerate() {
        let (kind, reg) = env
            .get(a)
            .ok_or_else(|| format!("undefined variable {a:?}"))?;
        // Loads address through the integer file but `store` may write a
        // float value, and FP compares (flt/feq) read floats — only flag
        // the mismatches that would put an operand in a file the op class
        // never reads.
        if class == OpClass::FpAdd || class == OpClass::FpMul {
            if kind != VarKind::Fp {
                return Err(format!(
                    "type error: {op} reads float variables but {a:?} is an integer"
                ));
            }
        } else if kind != VarKind::Int && class != OpClass::Store {
            return Err(format!(
                "type error: {op} reads integer variables but {a:?} is a float"
            ));
        }
        srcs[slot] = Some(reg);
    }
    let dest = match (defines, dest_name) {
        (true, Some(d)) => Some(env.define(
            d,
            if wants == VarKind::Fp {
                VarKind::Fp
            } else {
                ty
            },
        )),
        _ => None,
    };
    Ok(Inst::new(class, dest, srcs))
}
