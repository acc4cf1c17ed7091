//! Flat WebAssembly-text frontend.
//!
//! Accepts a deliberately small WAT subset: a `(module ...)` of flat
//! `(func $name ...)` bodies — instructions written one per line, not
//! folded s-expressions. Structured control (`block $l` / `loop $l` /
//! `br_if $l` / `br $l` / `end`) is lowered to labeled basic blocks with
//! conditional branches:
//!
//! * `block $l` targets its **end** (forward branch), `loop $l` targets its
//!   **head** (backward branch), exactly as in WebAssembly.
//! * `br_if $l` pops the condition and becomes a two-way branch whose
//!   fall-through continues in a synthesized block.
//! * Branch behaviour is annotated in a comment immediately after the
//!   `br_if`: `;; @loop=20`, `;; @p=0.1`, `;; @fixed=8`,
//!   `;; @pattern=1101:0.05` (the assembler grammar). Unannotated branches
//!   are even coin flips.
//!
//! Values are abstract. The operand stack is modeled as a stack of
//! registers: locals get dedicated registers (`r1..r15` / `f1..f15`),
//! intermediate stack slots rotate through `r16..r31` / `f16..f31`.
//! Numeric (depth-based) branch targets, folded expressions, and calls
//! that return values are out of scope and produce stable diagnostics.

use fetchmech_isa::{Inst, OpClass, Reg};
use fetchmech_workloads::BranchModel;

use crate::ir::{err, BlockIr, FrontendError, FuncIr, Module, Term};

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    LParen,
    RParen,
    Atom(String),
    /// `@...` behaviour annotation lifted out of a comment.
    Anno(String),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    line: usize,
}

fn tokenize(src: &str) -> Result<Vec<Token>, FrontendError> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let push_comment = |text: &str, line: usize, toks: &mut Vec<Token>| {
        let text = text.trim();
        if let Some(anno) = text.strip_prefix('@') {
            toks.push(Token {
                tok: Tok::Anno(anno.trim().to_owned()),
                line,
            });
        }
    };
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            ';' if bytes.get(i + 1) == Some(&';') => {
                let start = i + 2;
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                push_comment(&text, line, &mut toks);
            }
            '(' if bytes.get(i + 1) == Some(&';') => {
                let start_line = line;
                let start = i + 2;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(err(start_line, "unterminated block comment"));
                    }
                    if bytes[i] == ';' && bytes[i + 1] == ')' {
                        break;
                    }
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                push_comment(&text, start_line, &mut toks);
                i += 2;
            }
            '(' => {
                toks.push(Token {
                    tok: Tok::LParen,
                    line,
                });
                i += 1;
            }
            ')' => {
                toks.push(Token {
                    tok: Tok::RParen,
                    line,
                });
                i += 1;
            }
            '"' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i] != '"' {
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i == bytes.len() {
                    return Err(err(line, "unterminated string"));
                }
                i += 1;
                let text: String = bytes[start..i].iter().collect();
                toks.push(Token {
                    tok: Tok::Atom(text),
                    line,
                });
            }
            _ => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i];
                    if c.is_whitespace() || c == '(' || c == ')' || c == ';' || c == '"' {
                        break;
                    }
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                toks.push(Token {
                    tok: Tok::Atom(text),
                    line,
                });
            }
        }
    }
    Ok(toks)
}

#[derive(Debug)]
struct Frame {
    /// User label (`$l`), empty when unlabeled.
    name: String,
    /// Block label a `br` to this frame jumps to (head for loops, the
    /// join block for blocks).
    target: String,
    /// Join label opened when the frame's `end` is reached (loops fall
    /// through here; for blocks it equals `target`).
    join: String,
}

/// Cursor over the token stream.
struct Cursor {
    toks: Vec<Token>,
    pos: usize,
}

impl Cursor {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn last_line(&self) -> usize {
        self.toks.last().map_or(1, |t| t.line)
    }

    fn expect_lparen(&mut self, what: &str) -> Result<usize, FrontendError> {
        match self.next() {
            Some(Token {
                tok: Tok::LParen,
                line,
            }) => Ok(line),
            Some(t) => Err(err(t.line, format!("expected `(` to start {what}"))),
            None => Err(err(
                self.last_line(),
                format!("expected `(` to start {what}"),
            )),
        }
    }

    fn expect_atom(&mut self, what: &str) -> Result<(String, usize), FrontendError> {
        match self.next() {
            Some(Token {
                tok: Tok::Atom(a),
                line,
            }) => Ok((a, line)),
            Some(t) => Err(err(t.line, format!("expected {what}"))),
            None => Err(err(self.last_line(), format!("expected {what}"))),
        }
    }

    /// Skips a balanced `( ... )` whose `(` was already consumed.
    fn skip_group(&mut self, open_line: usize) -> Result<(), FrontendError> {
        let mut depth = 1usize;
        while depth > 0 {
            match self.next() {
                Some(Token {
                    tok: Tok::LParen, ..
                }) => depth += 1,
                Some(Token {
                    tok: Tok::RParen, ..
                }) => depth -= 1,
                Some(_) => {}
                None => return Err(err(open_line, "unbalanced parentheses")),
            }
        }
        Ok(())
    }
}

/// Per-function lowering state.
struct FuncBuilder {
    blocks: Vec<BlockIr>,
    frames: Vec<Frame>,
    /// Operand stack of abstract registers.
    stack: Vec<Reg>,
    /// `$name` → (register, fp?)
    locals: Vec<(String, Reg)>,
    next_int_local: u8,
    next_fp_local: u8,
    rot_int: u8,
    rot_fp: u8,
    next_label: usize,
    /// Index of the block holding the most recent `br_if`, for `@` comment
    /// annotations.
    last_cond: Option<usize>,
}

impl FuncBuilder {
    fn new() -> Self {
        let mut fb = FuncBuilder {
            blocks: Vec::new(),
            frames: Vec::new(),
            stack: Vec::new(),
            locals: Vec::new(),
            next_int_local: 0,
            next_fp_local: 0,
            rot_int: 0,
            rot_fp: 0,
            next_label: 0,
            last_cond: None,
        };
        fb.open("entry".to_owned(), 0);
        fb
    }

    fn fresh_label(&mut self) -> String {
        let l = format!(".L{}", self.next_label);
        self.next_label += 1;
        l
    }

    fn open(&mut self, label: String, line: usize) {
        self.blocks.push(BlockIr {
            line,
            label,
            insts: Vec::new(),
            term: None,
        });
    }

    fn cur(&mut self) -> &mut BlockIr {
        self.blocks.last_mut().expect("a block is always open")
    }

    fn terminated(&self) -> bool {
        self.blocks.last().is_some_and(|b| b.term.is_some())
    }

    fn define_local(&mut self, name: &str, fp: bool, line: usize) -> Result<(), FrontendError> {
        if self.locals.iter().any(|(n, _)| n == name) {
            return Err(err(line, format!("duplicate local {name}")));
        }
        let reg = if fp {
            if self.next_fp_local >= 15 {
                return Err(err(
                    line,
                    "too many f64 locals (the frontend models at most 15)",
                ));
            }
            self.next_fp_local += 1;
            Reg::fp(self.next_fp_local)
        } else {
            if self.next_int_local >= 15 {
                return Err(err(
                    line,
                    "too many i32 locals (the frontend models at most 15)",
                ));
            }
            self.next_int_local += 1;
            Reg::int(self.next_int_local)
        };
        self.locals.push((name.to_owned(), reg));
        Ok(())
    }

    fn local(&self, name: &str, line: usize) -> Result<Reg, FrontendError> {
        self.locals
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, r)| r)
            .ok_or_else(|| err(line, format!("unknown local {name}")))
    }

    /// A fresh scratch register for a stack slot, rotating through the
    /// upper half of the file.
    fn scratch(&mut self, fp: bool) -> Reg {
        if fp {
            let r = Reg::fp(16 + self.rot_fp % 16);
            self.rot_fp = self.rot_fp.wrapping_add(1);
            r
        } else {
            let r = Reg::int(16 + self.rot_int % 16);
            self.rot_int = self.rot_int.wrapping_add(1);
            r
        }
    }

    fn pop(&mut self, what: &str, line: usize) -> Result<Reg, FrontendError> {
        self.stack
            .pop()
            .ok_or_else(|| err(line, format!("operand stack underflow in {what}")))
    }

    /// Finds the frame a `$label` branch targets.
    fn frame_target(&self, label: &str, line: usize) -> Result<String, FrontendError> {
        if label.parse::<u32>().is_ok() {
            return Err(err(
                line,
                "numeric branch targets are not supported; label the block/loop with $name",
            ));
        }
        self.frames
            .iter()
            .rev()
            .find(|f| f.name == label)
            .map(|f| f.target.clone())
            .ok_or_else(|| err(line, format!("no enclosing block/loop labeled {label}")))
    }
}

/// Parses the WAT subset into the frontend module IR.
pub(crate) fn parse(src: &str) -> Result<Module, FrontendError> {
    let mut cur = Cursor {
        toks: tokenize(src)?,
        pos: 0,
    };
    let open = cur.expect_lparen("the module")?;
    let (kw, kw_line) = cur.expect_atom("`module`")?;
    if kw != "module" {
        return Err(err(kw_line, format!("expected `module`, found `{kw}`")));
    }
    let mut module = Module::default();
    loop {
        match cur.next() {
            Some(Token {
                tok: Tok::RParen, ..
            }) => break,
            Some(Token {
                tok: Tok::LParen,
                line,
            }) => {
                let (kw, kw_line) = cur.expect_atom("a module field")?;
                if kw == "func" {
                    module.funcs.push(parse_func(&mut cur, kw_line)?);
                } else {
                    // (memory ...), (export ...), (type ...): irrelevant to
                    // fetch behaviour, skipped wholesale.
                    cur.skip_group(line)?;
                }
            }
            Some(t) => return Err(err(t.line, "expected a `(...)` module field")),
            None => return Err(err(open, "unterminated module")),
        }
    }
    if module.funcs.is_empty() {
        return Err(err(open, "module has no functions"));
    }
    Ok(module)
}

fn parse_func(cur: &mut Cursor, func_line: usize) -> Result<FuncIr, FrontendError> {
    let name = match cur.peek() {
        Some(Token {
            tok: Tok::Atom(a), ..
        }) if a.starts_with('$') => {
            let n = a[1..].to_owned();
            cur.next();
            n
        }
        _ => return Err(err(func_line, "func needs a $name")),
    };
    let mut fb = FuncBuilder::new();

    loop {
        let Some(t) = cur.next() else {
            return Err(err(func_line, format!("unterminated function {name}")));
        };
        match t.tok {
            Tok::RParen => break,
            Tok::LParen => {
                let (kw, kw_line) = cur.expect_atom("a declaration")?;
                match kw.as_str() {
                    "param" | "local" => {
                        // (param $x i32) / (local $y f64); plain (param i32)
                        // is rejected — the frontend needs names.
                        let (pname, pline) = cur.expect_atom("a $name")?;
                        let Some(pname) = pname.strip_prefix('$') else {
                            return Err(err(
                                pline,
                                format!("{kw} needs a $name (unnamed {kw}s are not supported)"),
                            ));
                        };
                        let (ty, tline) = cur.expect_atom("a value type")?;
                        let fp = match ty.as_str() {
                            "i32" | "i64" => false,
                            "f32" | "f64" => true,
                            other => {
                                return Err(err(tline, format!("unsupported value type {other}")))
                            }
                        };
                        fb.define_local(pname, fp, pline)?;
                        match cur.next() {
                            Some(Token {
                                tok: Tok::RParen, ..
                            }) => {}
                            _ => return Err(err(pline, format!("expected `)` after the {kw}"))),
                        }
                    }
                    "result" | "export" => cur.skip_group(kw_line)?,
                    other => {
                        return Err(err(
                            kw_line,
                            format!(
                                "folded expressions are not supported (found `({other} ...)`); \
                                 write the body flat, one instruction per line"
                            ),
                        ))
                    }
                }
            }
            Tok::Anno(anno) => {
                let model = BranchModel::parse_annotation(&anno).map_err(|m| err(t.line, m))?;
                let Some(bi) = fb.last_cond else {
                    return Err(err(t.line, "behaviour annotation with no preceding br_if"));
                };
                match &mut fb.blocks[bi].term {
                    Some((_, Term::Cond { model: m, .. })) => *m = model,
                    _ => return Err(err(t.line, "behaviour annotation with no preceding br_if")),
                }
            }
            Tok::Atom(op) => instr(cur, &mut fb, &op, t.line)?,
        }
    }

    // Fell off the end of the function body: that is a return.
    if !fb.frames.is_empty() {
        return Err(err(
            func_line,
            format!("unclosed block/loop in function {name}"),
        ));
    }
    if !fb.terminated() {
        let line = fb.cur().line;
        fb.cur().term = Some((line, Term::Ret));
    }
    Ok(FuncIr {
        name,
        line: func_line,
        blocks: fb.blocks,
    })
}

/// Reads the optional `$label` operand of block/loop.
fn opt_label(cur: &mut Cursor) -> Option<String> {
    match cur.peek() {
        Some(Token {
            tok: Tok::Atom(a), ..
        }) if a.starts_with('$') => {
            let l = a.clone();
            cur.next();
            Some(l)
        }
        _ => None,
    }
}

#[allow(clippy::too_many_lines)]
fn instr(
    cur: &mut Cursor,
    fb: &mut FuncBuilder,
    op: &str,
    line: usize,
) -> Result<(), FrontendError> {
    if fb.terminated() && !matches!(op, "end") {
        return Err(err(line, format!("unreachable `{op}` after a terminator")));
    }
    match op {
        "block" | "loop" => {
            let name = opt_label(cur).unwrap_or_default();
            if op == "loop" {
                let head = fb.fresh_label();
                let join = fb.fresh_label();
                let prev_line = fb.cur().line;
                if !fb.terminated() {
                    fb.cur().term = Some((prev_line, Term::Fall(head.clone())));
                }
                fb.open(head.clone(), line);
                fb.frames.push(Frame {
                    name,
                    target: head,
                    join,
                });
            } else {
                let join = fb.fresh_label();
                fb.frames.push(Frame {
                    name,
                    target: join.clone(),
                    join,
                });
            }
        }
        "end" => {
            let Some(frame) = fb.frames.pop() else {
                return Err(err(line, "`end` with no open block/loop"));
            };
            if !fb.terminated() {
                let l = fb.cur().line;
                fb.cur().term = Some((l, Term::Fall(frame.join.clone())));
            }
            fb.open(frame.join, line);
        }
        "br_if" => {
            let (label, lline) = cur.expect_atom("a branch target after br_if")?;
            let target = fb.frame_target(&label, lline)?;
            let cond = fb.pop("br_if", line)?;
            let fall = fb.fresh_label();
            fb.cur().term = Some((
                line,
                Term::Cond {
                    srcs: [Some(cond), None],
                    taken: target,
                    fall: fall.clone(),
                    model: BranchModel::Bernoulli(0.5),
                },
            ));
            fb.last_cond = Some(fb.blocks.len() - 1);
            fb.open(fall, line);
        }
        "br" => {
            let (label, lline) = cur.expect_atom("a branch target after br")?;
            let target = fb.frame_target(&label, lline)?;
            fb.cur().term = Some((line, Term::Jump(target)));
        }
        "return" => {
            fb.cur().term = Some((line, Term::Ret));
        }
        "call" => {
            let (callee, cline) = cur.expect_atom("a $function after call")?;
            let Some(callee) = callee.strip_prefix('$') else {
                return Err(err(cline, "call needs a $function name"));
            };
            let ret = fb.fresh_label();
            fb.cur().term = Some((
                line,
                Term::Call {
                    callee: callee.to_owned(),
                    return_to: ret.clone(),
                },
            ));
            fb.open(ret, line);
        }
        "local.get" => {
            let (name, lline) = local_operand(cur, op)?;
            let reg = fb.local(&name, lline)?;
            fb.stack.push(reg);
        }
        "local.set" | "local.tee" => {
            let (name, lline) = local_operand(cur, op)?;
            let dest = fb.local(&name, lline)?;
            let val = fb.pop(op, line)?;
            let class = match dest {
                Reg::Int(_) => OpClass::IntAlu,
                Reg::Fp(_) => OpClass::FpAdd,
            };
            if matches!(dest, Reg::Fp(_)) != matches!(val, Reg::Fp(_)) {
                return Err(err(
                    line,
                    format!("type error: {op} ${name} from a mismatched operand class"),
                ));
            }
            fb.cur()
                .insts
                .push(Inst::new(class, Some(dest), [Some(val), None]));
            if op == "local.tee" {
                fb.stack.push(dest);
            }
        }
        "drop" => {
            fb.pop(op, line)?;
        }
        "nop" => fb.cur().insts.push(Inst::nop()),
        "i32.const" | "i64.const" | "f32.const" | "f64.const" => {
            let (v, _) = cur.expect_atom("a literal")?;
            let fp = op.starts_with('f');
            let imm = v
                .parse::<f64>()
                .map_err(|_| err(line, format!("bad literal {v:?}")))?
                .clamp(f64::from(i8::MIN), f64::from(i8::MAX)) as i8;
            let dest = fb.scratch(fp);
            let class = if fp { OpClass::FpAdd } else { OpClass::IntAlu };
            fb.cur()
                .insts
                .push(Inst::new(class, Some(dest), [None, None]).with_imm(imm));
            fb.stack.push(dest);
        }
        _ => {
            let (prefix, rest) = op
                .split_once('.')
                .ok_or_else(|| err(line, format!("unknown instruction `{op}`")))?;
            let fp = matches!(prefix, "f32" | "f64");
            if !fp && !matches!(prefix, "i32" | "i64") {
                return Err(err(line, format!("unknown instruction `{op}`")));
            }
            let (class, arity, pushes) = match rest {
                "add" | "sub" | "and" | "or" | "xor" | "shl" | "shr_s" | "shr_u" | "eq" | "ne"
                | "lt_s" | "lt_u" | "gt_s" | "gt_u" | "le_s" | "le_u" | "ge_s" | "ge_u" | "lt"
                | "gt" | "le" | "ge" => {
                    (if fp { OpClass::FpAdd } else { OpClass::IntAlu }, 2, true)
                }
                "mul" | "div" | "div_s" | "div_u" | "rem_s" | "rem_u" => {
                    (if fp { OpClass::FpMul } else { OpClass::IntMul }, 2, true)
                }
                "eqz" => (OpClass::IntAlu, 1, true),
                "neg" | "abs" | "sqrt" => (OpClass::FpAdd, 1, true),
                "load" => (OpClass::Load, 1, true),
                "store" => (OpClass::Store, 2, false),
                _ => return Err(err(line, format!("unknown instruction `{op}`"))),
            };
            let mut srcs = [None, None];
            for slot in (0..arity).rev() {
                srcs[slot] = Some(fb.pop(op, line)?);
            }
            // Comparisons and eqz produce i32 regardless of operand type.
            let dest_fp = fp && !matches!(rest, "eq" | "ne" | "lt" | "gt" | "le" | "ge" | "eqz");
            let dest = if pushes {
                let d = fb.scratch(dest_fp && class != OpClass::Load);
                fb.stack.push(d);
                Some(d)
            } else {
                None
            };
            fb.cur().insts.push(Inst::new(class, dest, srcs));
        }
    }
    Ok(())
}

fn local_operand(cur: &mut Cursor, op: &str) -> Result<(String, usize), FrontendError> {
    let (name, line) = cur.expect_atom(&format!("a $local after {op}"))?;
    match name.strip_prefix('$') {
        Some(n) => Ok((n.to_owned(), line)),
        None => Err(err(
            line,
            format!("{op} needs a $local name (numeric indices are not supported)"),
        )),
    }
}
