//! Structural verification of [`BlockStream`]s — the invariants the
//! simulator's block-level fast path assumes.
//!
//! The fast path walks templates by record id, trusts the per-template
//! op-class counts and nop prefix sums for packet accounting, and takes the
//! chunked (multi-instruction) admission path whenever a template claims to
//! be `sequential()`. A stream violating any of those assumptions would not
//! crash the simulator — it would silently mis-simulate, which is exactly
//! the failure class the differential oracle exists to catch at run time
//! and this pass catches at construction time.

use fetchmech_isa::{BlockStream, SegTemplate};

use crate::diag::{DiagnosticSink, Location};
use crate::registry::{Pass, Target};

/// Rule ids emitted by [`StreamPass`].
pub(crate) const STREAM_RULES: &[&str] = &[
    "stream.record-template-range",
    "stream.total-insts",
    "stream.cut-final-only",
    "stream.ctrl-terminal-only",
    "stream.counts-exact",
    "stream.sequential-flag",
    "stream.template-live",
    "stream.record-linkage",
];

/// Structural verifier over a [`BlockStream`]: record/template
/// cross-references, instruction accounting, terminal placement, and the
/// derived per-template metadata the fast fetch path consumes.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamPass;

impl Pass for StreamPass {
    fn name(&self) -> &'static str {
        "structural-stream"
    }

    fn description(&self) -> &'static str {
        "block-stream invariants: record ids in range, instruction totals, \
         cut segments only at the end, terminal-only control transfers, \
         exact op-class counts, honest sequential flags"
    }

    fn rules(&self) -> &'static [&'static str] {
        STREAM_RULES
    }

    fn applies(&self, target: &Target<'_>) -> bool {
        matches!(target, Target::Stream(_))
    }

    fn run(&self, target: &Target<'_>, sink: &mut DiagnosticSink) {
        if let Target::Stream(stream) = target {
            check_stream(stream, sink);
        }
    }
}

fn check_template(id: usize, t: &SegTemplate, sink: &mut DiagnosticSink) {
    let insts = t.insts();
    // stream.ctrl-terminal-only: only the final instruction may carry a
    // control outcome (the fast path treats every earlier slot as a plain
    // straight-line instruction).
    for (i, inst) in insts.iter().enumerate() {
        if i + 1 < insts.len() && inst.ctrl.is_some() {
            sink.error(
                "stream.ctrl-terminal-only",
                Location::Addr(inst.addr),
                format!(
                    "template {id}: non-terminal instruction {i} of {} carries a control outcome",
                    insts.len()
                ),
            );
        }
    }
    // stream.counts-exact: the cached op-class counts and nop prefix sums
    // must agree with a recount of the stored instructions.
    for op in fetchmech_isa::OpClass::ALL {
        let actual = insts.iter().filter(|i| i.op == op).count() as u32;
        if t.op_count(op) != actual {
            sink.error(
                "stream.counts-exact",
                Location::Addr(t.start_addr()),
                format!(
                    "template {id}: cached count for {op:?} is {} but the segment contains {actual}",
                    t.op_count(op)
                ),
            );
        }
    }
    let nops_full = t.nops_in(0..insts.len());
    if nops_full != t.op_count(fetchmech_isa::OpClass::Nop) {
        sink.error(
            "stream.counts-exact",
            Location::Addr(t.start_addr()),
            format!(
                "template {id}: nop prefix sum over the full segment is {nops_full}, \
                 op count says {}",
                t.op_count(fetchmech_isa::OpClass::Nop)
            ),
        );
    }
    // stream.sequential-flag: the chunked-admission flag must match the
    // actual address pattern — a false positive makes the fast path admit
    // instructions at addresses it never checked against the cache block.
    let actually_sequential = insts
        .windows(2)
        .all(|w| w[0].next_pc == w[0].addr.add_words(1) && w[1].addr == w[0].next_pc);
    if t.sequential() != actually_sequential {
        sink.error(
            "stream.sequential-flag",
            Location::Addr(t.start_addr()),
            format!(
                "template {id}: sequential flag is {} but the address pattern says {}",
                t.sequential(),
                actually_sequential
            ),
        );
    }
}

/// Runs every [`StreamPass`] rule over `stream`.
pub(crate) fn check_stream(stream: &BlockStream, sink: &mut DiagnosticSink) {
    let templates = stream.templates();
    let records = stream.records();

    for (id, t) in templates.iter().enumerate() {
        check_template(id, t, sink);
    }

    // stream.record-template-range + stream.total-insts: every record must
    // name a real template, and the cached instruction total must equal the
    // sum over records (the fast path sizes its work and its done-detection
    // on it).
    let mut referenced = vec![false; templates.len()];
    let mut total: u64 = 0;
    for (rec, &id) in records.iter().enumerate() {
        match templates.get(id as usize) {
            Some(t) => {
                referenced[id as usize] = true;
                total += t.len() as u64;
            }
            None => sink.error(
                "stream.record-template-range",
                Location::Trace(rec),
                format!(
                    "record {rec} names template {id}, but only {} templates exist",
                    templates.len()
                ),
            ),
        }
    }
    if total != stream.total_insts() {
        sink.error(
            "stream.total-insts",
            Location::Program,
            format!(
                "stream claims {} instructions but its records sum to {total}",
                stream.total_insts()
            ),
        );
    }

    // stream.cut-final-only: a cut segment encodes "the trace ended
    // mid-run", so it can only be the stream's final record.
    for (rec, &id) in records.iter().enumerate() {
        if rec + 1 < records.len() {
            if let Some(t) = templates.get(id as usize) {
                if t.is_cut() {
                    sink.error(
                        "stream.cut-final-only",
                        Location::Trace(rec),
                        format!(
                            "record {rec} of {} executes cut template {id} before the \
                             end of the stream",
                            records.len()
                        ),
                    );
                }
            }
        }
    }

    // stream.template-live: an unreferenced template is dead weight from a
    // buggy encoder — harmless to simulate, so a warning.
    for (id, live) in referenced.iter().enumerate() {
        if !live {
            sink.warn(
                "stream.template-live",
                Location::Addr(templates[id].start_addr()),
                format!("template {id} is referenced by no record"),
            );
        }
    }

    // stream.record-linkage: consecutive records should chain — the resume
    // address of one segment is where the next begins. Hand-assembled
    // streams may legitimately break this (the encoding is positional, not
    // address-driven), so a warning.
    for (rec, pair) in records.windows(2).enumerate() {
        if let (Some(a), Some(b)) = (
            templates.get(pair[0] as usize),
            templates.get(pair[1] as usize),
        ) {
            if a.next_pc() != b.start_addr() {
                sink.warn(
                    "stream.record-linkage",
                    Location::Trace(rec),
                    format!(
                        "record {rec} resumes at {} but record {} starts at {}",
                        a.next_pc(),
                        rec + 1,
                        b.start_addr()
                    ),
                );
            }
        }
    }
}
