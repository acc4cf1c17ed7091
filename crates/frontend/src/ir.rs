//! The shared frontend IR and its lowering to `fetchmech-isa`.
//!
//! Both parsers — Bril-style JSON ([`crate::bril`]) and flat WebAssembly
//! text ([`crate::wat`]) — produce the same [`Module`] of labeled blocks
//! with pending (label-referencing) terminators; [`lower`] then resolves
//! labels through one [`ProgramBuilder`] walk, allocating behaviour models
//! in [`BranchId`](fetchmech_isa::BranchId) order, so the result executes
//! through the existing trace generator unchanged.
//!
//! # Lowering rules
//!
//! * Function 0 is `main`; its entry block is the program entry.
//! * A `ret` in `main` lowers to `halt`, so the trace generator's halt-restart
//!   semantics (deterministic behaviour-state reset) apply to external
//!   programs exactly as to generated ones.
//! * Calls lower to the ISA's [`Terminator::Call`] with the frontend-
//!   synthesized continuation block as `return_to`.
//! * Labels are function-scoped; the lowered label map qualifies them as
//!   `func.label`.

use std::collections::HashMap;
use std::fmt;

use fetchmech_isa::{BlockId, FuncId, Inst, Program, ProgramBuilder, Reg, ValidateError};
use fetchmech_workloads::{BehaviorMap, BranchModel};

/// A frontend diagnostic, with the 1-based source line when the format has
/// lines (WAT); structured formats (Bril JSON) use line 0 and carry the
/// function/instruction coordinates in the message instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendError {
    /// 1-based line number (0 when the format is not line-oriented).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            f.write_str(&self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for FrontendError {}

impl From<ValidateError> for FrontendError {
    fn from(e: ValidateError) -> Self {
        FrontendError {
            line: 0,
            message: format!("invalid program: {e:?}"),
        }
    }
}

/// Shorthand error constructor used across the frontend.
pub(crate) fn err(line: usize, message: impl Into<String>) -> FrontendError {
    FrontendError {
        line,
        message: message.into(),
    }
}

/// A block terminator before labels are resolvable.
#[derive(Debug, Clone)]
pub(crate) enum Term {
    /// Fall through to a labeled block of the same function.
    Fall(String),
    /// Conditional branch with its behaviour model.
    Cond {
        srcs: [Option<Reg>; 2],
        taken: String,
        fall: String,
        model: BranchModel,
    },
    /// Unconditional jump within the function.
    Jump(String),
    /// Call another function, resuming at `return_to`.
    Call { callee: String, return_to: String },
    /// Return to the caller (lowers to halt in `main`, so the trace generator's
    /// restart-at-entry semantics apply to external programs).
    Ret,
}

/// One labeled basic block of the frontend IR.
#[derive(Debug, Clone)]
pub(crate) struct BlockIr {
    /// Source line the block starts on (0 for structured formats).
    pub line: usize,
    /// Function-scoped label.
    pub label: String,
    pub insts: Vec<Inst>,
    /// Terminator plus the line it came from.
    pub term: Option<(usize, Term)>,
}

/// One function of the frontend IR.
#[derive(Debug, Clone)]
pub(crate) struct FuncIr {
    pub name: String,
    pub line: usize,
    pub blocks: Vec<BlockIr>,
}

/// A parsed module, ready for lowering.
#[derive(Debug, Clone, Default)]
pub(crate) struct Module {
    pub funcs: Vec<FuncIr>,
}

/// A lowered external program: the CFG, its branch behaviours, and the
/// qualified (`func.label`) label map for tests and tooling.
#[derive(Debug, Clone)]
pub struct LoweredProgram {
    /// The control-flow graph.
    pub program: Program,
    /// Behaviour of every conditional branch (annotation-driven; defaults
    /// to `Bernoulli(0.5)`).
    pub behaviors: BehaviorMap,
    /// `func.label` → block id.
    pub labels: HashMap<String, BlockId>,
}

impl LoweredProgram {
    /// A stable content hash over the CFG *and* the behaviour models — two
    /// uploads get the same fingerprint exactly when they simulate
    /// identically, which is what makes `prog-<hash>` ids safe to
    /// deduplicate under.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.program.fingerprint();
        let mix = |h: &mut u64, v: u64| {
            *h ^= v;
            *h = h.wrapping_mul(fetchmech_isa::FNV_PRIME);
        };
        for i in 0..self.behaviors.len() {
            match self.behaviors.model(fetchmech_isa::BranchId(i as u32)) {
                BranchModel::Bernoulli(p) => {
                    mix(&mut h, 1);
                    mix(&mut h, p.to_bits());
                }
                BranchModel::Loop { mean_trips } => {
                    mix(&mut h, 2);
                    mix(&mut h, mean_trips.to_bits());
                }
                BranchModel::FixedLoop { trips } => {
                    mix(&mut h, 3);
                    mix(&mut h, trips);
                }
                BranchModel::Pattern { bits, len, noise } => {
                    mix(&mut h, 4);
                    mix(&mut h, u64::from(bits));
                    mix(&mut h, u64::from(len));
                    mix(&mut h, noise.to_bits());
                }
            }
        }
        h
    }
}

/// Lowers a parsed module to a validated program plus behaviours.
pub(crate) fn lower(module: &Module) -> Result<LoweredProgram, FrontendError> {
    if module.funcs.is_empty() {
        return Err(err(0, "module has no functions"));
    }
    for (i, f) in module.funcs.iter().enumerate() {
        if f.blocks.is_empty() {
            return Err(err(f.line, format!("function {:?} has no blocks", f.name)));
        }
        if module.funcs[..i].iter().any(|g| g.name == f.name) {
            return Err(err(f.line, format!("duplicate function {:?}", f.name)));
        }
    }

    let mut builder = ProgramBuilder::new();
    let func_ids: Vec<FuncId> = module.funcs.iter().map(|_| builder.begin_func()).collect();

    // First pass: allocate block ids, function-scoped label maps.
    let mut labels: HashMap<String, BlockId> = HashMap::new();
    let mut local: Vec<HashMap<&str, BlockId>> = Vec::with_capacity(module.funcs.len());
    let mut func_entries: HashMap<&str, BlockId> = HashMap::new();
    for (fi, f) in module.funcs.iter().enumerate() {
        let mut map = HashMap::new();
        for b in &f.blocks {
            if map.contains_key(b.label.as_str()) {
                return Err(err(
                    b.line,
                    format!(
                        "duplicate block label {:?} in function {:?}",
                        b.label, f.name
                    ),
                ));
            }
            let id = builder.new_block(func_ids[fi]);
            map.insert(b.label.as_str(), id);
            labels.insert(format!("{}.{}", f.name, b.label), id);
        }
        func_entries.insert(f.name.as_str(), map[f.blocks[0].label.as_str()]);
        local.push(map);
    }

    // Second pass: bodies and resolved terminators; models in BranchId order.
    let mut models: Vec<BranchModel> = Vec::new();
    for (fi, f) in module.funcs.iter().enumerate() {
        for b in &f.blocks {
            let id = local[fi][b.label.as_str()];
            for inst in &b.insts {
                builder.push_inst(id, *inst);
            }
            let (tline, term) = b.term.as_ref().ok_or_else(|| {
                err(
                    b.line,
                    format!(
                        "block {:?} in function {:?} has no terminator",
                        b.label, f.name
                    ),
                )
            })?;
            let resolve = |label: &str| -> Result<BlockId, FrontendError> {
                local[fi].get(label).copied().ok_or_else(|| {
                    err(
                        *tline,
                        format!("unknown label {:?} in function {:?}", label, f.name),
                    )
                })
            };
            use fetchmech_isa::Terminator as T;
            match term {
                Term::Fall(next) => builder.set_terminator(
                    id,
                    T::FallThrough {
                        next: resolve(next)?,
                    },
                ),
                Term::Cond {
                    srcs,
                    taken,
                    fall,
                    model,
                } => {
                    let branch =
                        builder.set_cond_branch(id, *srcs, resolve(taken)?, resolve(fall)?);
                    debug_assert_eq!(branch.0 as usize, models.len());
                    models.push(*model);
                }
                Term::Jump(target) => builder.set_terminator(
                    id,
                    T::Jump {
                        target: resolve(target)?,
                    },
                ),
                Term::Call { callee, return_to } => {
                    let entry = func_entries.get(callee.as_str()).copied().ok_or_else(|| {
                        err(*tline, format!("unknown function {callee:?} in call"))
                    })?;
                    builder.set_terminator(
                        id,
                        T::Call {
                            callee: entry,
                            return_to: resolve(return_to)?,
                        },
                    );
                }
                // `main` must halt, not return: the trace generator's halt-restart
                // resets behaviour state deterministically.
                Term::Ret if fi == 0 => builder.set_terminator(id, T::Halt),
                Term::Ret => builder.set_terminator(id, T::Return),
            }
        }
    }
    builder.set_entry(func_entries[module.funcs[0].name.as_str()]);
    let program = builder.finish()?;
    Ok(LoweredProgram {
        program,
        behaviors: BehaviorMap::new(models),
        labels,
    })
}
