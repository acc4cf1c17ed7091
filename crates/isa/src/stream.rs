//! Run-length fetch-block streams — the compact dynamic-trace representation.
//!
//! A flat `Vec<DynInst>` spends 32 bytes per dynamic instruction even though
//! the fetch schemes of the paper only consume *fetch-block geometry*: run
//! lengths between control transfers, branch kind and direction, target
//! displacement, and the op-class mix the out-of-order core needs. A
//! [`BlockStream`] factors the trace into **branch-to-branch segments**: every
//! dynamic instruction run from a stream redirect (or the trace start) through
//! the next control transfer, inclusive, becomes one [`SegTemplate`]. Because
//! programs revisit the same static runs with the same dynamic outcome over
//! and over, templates are interned — the dynamic stream collapses to a
//! `u32` template id per segment, typically 15–60× smaller than the
//! per-instruction trace.
//!
//! Crucially the encoding is *lossless*: a template stores the exact
//! [`DynInst`] records of its segment (direction and target are part of the
//! interning key), so [`BlockStream::materialize`] reproduces the original
//! per-instruction trace byte for byte. That property is what lets the
//! simulator's fast block-level path be checked against the per-instruction
//! differential oracle with whole-result equality.
//!
//! # Examples
//!
//! ```
//! use fetchmech_isa::{Addr, BlockStream, DynCtrl, DynInst, OpClass};
//!
//! let branch = DynInst {
//!     addr: Addr::new(0x104),
//!     op: OpClass::CondBranch,
//!     dest: None,
//!     srcs: [None, None],
//!     next_pc: Addr::new(0x100),
//!     ctrl: Some(DynCtrl {
//!         taken: true,
//!         target: Addr::new(0x100),
//!         link: None,
//!     }),
//! };
//! let body = DynInst::simple(Addr::new(0x100), OpClass::IntAlu, None, [None, None]);
//! // A two-instruction loop executed three times: six dynamic instructions,
//! // three records, one interned template.
//! let trace = vec![body, branch, body, branch, body, branch];
//! let stream = BlockStream::from_insts(&trace);
//! assert_eq!(stream.total_insts(), 6);
//! assert_eq!(stream.records().len(), 3);
//! assert_eq!(stream.templates().len(), 1);
//! assert_eq!(stream.materialize(), trace);
//! ```

use std::collections::HashMap;
use std::ops::Range;

use crate::addr::Addr;
use crate::op::OpClass;
use crate::trace::DynInst;

/// One interned branch-to-branch segment: a run of plain instructions ending
/// at a control transfer (or cut short by the end of the trace).
///
/// Invariants, enforced at construction:
///
/// * the segment is non-empty;
/// * only the **last** instruction may carry a control outcome (`ctrl`);
///   every earlier instruction is a straight-line instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegTemplate {
    insts: Box<[DynInst]>,
    counts: [u32; OpClass::ALL.len()],
    /// Prefix nop counts (`prefix[i]` = nops among `insts[..i]`), present only
    /// when the segment contains nops so partial-run nop counts stay O(1).
    nop_prefix: Option<Box<[u32]>>,
    /// True when every non-terminal instruction falls through contiguously
    /// (`insts[i+1].addr == insts[i].addr + 4`). Native traces always are;
    /// hand-built irregular traces fall back to per-instruction walking.
    sequential: bool,
}

impl SegTemplate {
    /// Builds a template from the exact dynamic instructions of one segment.
    ///
    /// # Panics
    ///
    /// Panics if `insts` is empty or a non-terminal instruction carries a
    /// control outcome.
    #[must_use]
    pub fn new(insts: Vec<DynInst>) -> Self {
        assert!(!insts.is_empty(), "segment template must be non-empty");
        assert!(
            insts[..insts.len() - 1].iter().all(|i| i.ctrl.is_none()),
            "only the terminal instruction of a segment may be a control transfer"
        );
        let mut counts = [0u32; OpClass::ALL.len()];
        for inst in &insts {
            counts[inst.op.index()] += 1;
        }
        let nop_prefix = if counts[OpClass::Nop.index()] > 0 {
            let mut prefix = Vec::with_capacity(insts.len() + 1);
            let mut n = 0u32;
            prefix.push(0);
            for inst in &insts {
                n += u32::from(inst.op == OpClass::Nop);
                prefix.push(n);
            }
            Some(prefix.into_boxed_slice())
        } else {
            None
        };
        let sequential = insts
            .windows(2)
            .all(|w| w[0].next_pc == w[0].addr.add_words(1) && w[1].addr == w[0].next_pc);
        Self {
            insts: insts.into_boxed_slice(),
            counts,
            nop_prefix,
            sequential,
        }
    }

    /// The exact dynamic instructions of this segment.
    #[must_use]
    #[inline]
    pub fn insts(&self) -> &[DynInst] {
        &self.insts
    }

    /// Number of instructions in the segment.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Always false — segments are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Count of instructions of one op class.
    #[must_use]
    #[inline]
    pub fn op_count(&self, op: OpClass) -> u32 {
        self.counts[op.index()]
    }

    /// Number of nops in the half-open instruction range `range`.
    #[must_use]
    #[inline]
    pub fn nops_in(&self, range: Range<usize>) -> u32 {
        match &self.nop_prefix {
            Some(prefix) => prefix[range.end] - prefix[range.start],
            None => 0,
        }
    }

    /// The terminal control transfer, or `None` for a segment cut short by
    /// the end of the trace.
    #[must_use]
    #[inline]
    pub fn terminal(&self) -> Option<&DynInst> {
        let last = self.insts.last().expect("non-empty");
        last.ctrl.is_some().then_some(last)
    }

    /// True when the segment has no terminal control transfer (the trace
    /// ended mid-run).
    #[must_use]
    pub fn is_cut(&self) -> bool {
        self.terminal().is_none()
    }

    /// True when every non-terminal instruction falls through contiguously.
    #[must_use]
    #[inline]
    pub fn sequential(&self) -> bool {
        self.sequential
    }

    /// Address of the first instruction.
    #[must_use]
    pub fn start_addr(&self) -> Addr {
        self.insts[0].addr
    }

    /// Address execution resumes at after this segment.
    #[must_use]
    pub fn next_pc(&self) -> Addr {
        self.insts.last().expect("non-empty").next_pc
    }
}

/// Aggregate stream statistics — compression accounting for BENCH files and
/// the `/metrics` endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamStats {
    /// Total dynamic instructions represented.
    pub insts: u64,
    /// Dynamic segment records.
    pub records: u64,
    /// Interned unique templates.
    pub templates: u64,
    /// Instructions stored across all templates.
    pub template_insts: u64,
    /// Mean dynamic run length (instructions per record).
    pub mean_run_len: f64,
    /// Approximate bytes of the stream representation (records + template
    /// instruction storage).
    pub stream_bytes: u64,
    /// Bytes the same trace occupies as a flat `Vec<DynInst>`.
    pub inst_bytes: u64,
    /// `inst_bytes / stream_bytes`.
    pub compression: f64,
}

/// A complete dynamic trace in run-length fetch-block form: an interned
/// template table plus one `u32` record per executed segment.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStream {
    templates: Box<[SegTemplate]>,
    records: Box<[u32]>,
    total_insts: u64,
}

impl BlockStream {
    /// Encodes a per-instruction trace. Lossless: `materialize()` returns
    /// exactly `insts`.
    #[must_use]
    pub fn from_insts(insts: &[DynInst]) -> Self {
        let mut b = BlockStreamBuilder::new();
        for inst in insts {
            b.push(*inst);
        }
        b.finish()
    }

    /// Assembles a stream directly from a template table and a record
    /// sequence **without checking cross-references** — support for
    /// validators and their tests (the `fetchmech-analysis` stream pass
    /// exists to find inconsistencies in exactly such hand-assembled
    /// streams). [`BlockStream::from_insts`] and [`BlockStreamBuilder`] are
    /// the checked construction paths; prefer them everywhere else.
    #[must_use]
    pub fn from_parts(templates: Vec<SegTemplate>, records: Vec<u32>, total_insts: u64) -> Self {
        Self {
            templates: templates.into_boxed_slice(),
            records: records.into_boxed_slice(),
            total_insts,
        }
    }

    /// The interned template table.
    #[must_use]
    pub fn templates(&self) -> &[SegTemplate] {
        &self.templates
    }

    /// The dynamic record sequence (template ids).
    #[must_use]
    #[inline]
    pub fn records(&self) -> &[u32] {
        &self.records
    }

    /// Template for a given id.
    #[must_use]
    #[inline]
    pub fn template(&self, id: u32) -> &SegTemplate {
        &self.templates[id as usize]
    }

    /// Total dynamic instructions represented.
    #[must_use]
    pub fn total_insts(&self) -> u64 {
        self.total_insts
    }

    /// Expands the stream back to the exact per-instruction trace.
    #[must_use]
    pub fn materialize(&self) -> Vec<DynInst> {
        let mut out = Vec::with_capacity(self.total_insts as usize);
        for &id in self.records.iter() {
            out.extend_from_slice(self.template(id).insts());
        }
        out
    }

    /// Compression and shape statistics.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        let insts = self.total_insts;
        let records = self.records.len() as u64;
        let template_insts: u64 = self.templates.iter().map(|t| t.len() as u64).sum();
        let inst_size = std::mem::size_of::<DynInst>() as u64;
        let stream_bytes = records * 4 + template_insts * inst_size;
        let inst_bytes = insts * inst_size;
        StreamStats {
            insts,
            records,
            templates: self.templates.len() as u64,
            template_insts,
            mean_run_len: if records == 0 {
                0.0
            } else {
                insts as f64 / records as f64
            },
            stream_bytes,
            inst_bytes,
            compression: if stream_bytes == 0 {
                1.0
            } else {
                inst_bytes as f64 / stream_bytes as f64
            },
        }
    }
}

/// Interning key: segment identity up to the exact instruction contents.
/// Two segments share a key iff they start at the same address, have the same
/// length, and end with the same (op, direction, resume address) — candidates
/// are then compared in full, so interning never conflates distinct segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SegKey {
    start: Addr,
    len: u32,
    exit_op: OpClass,
    /// 0 = cut (no ctrl), 1 = not taken, 2 = taken.
    exit_dir: u8,
    exit_pc: Addr,
}

impl SegKey {
    fn of(insts: &[DynInst]) -> Self {
        let first = insts.first().expect("non-empty segment");
        let last = insts.last().expect("non-empty segment");
        Self {
            start: first.addr,
            len: insts.len() as u32,
            exit_op: last.op,
            exit_dir: match last.ctrl {
                None => 0,
                Some(c) if !c.taken => 1,
                Some(_) => 2,
            },
            exit_pc: last.next_pc,
        }
    }
}

/// Incremental [`BlockStream`] encoder with template interning.
///
/// [`BlockStream::from_insts`] feeds it one dynamic instruction at a time; a
/// segment seals after every control transfer and at
/// [`finish`](Self::finish) (a trailing cut segment). Generators that know
/// segment boundaries up front intern a whole segment at once with
/// [`intern`](Self::intern) + [`push_record`](Self::push_record).
#[derive(Debug, Default)]
pub struct BlockStreamBuilder {
    templates: Vec<SegTemplate>,
    index: HashMap<SegKey, Vec<u32>>,
    records: Vec<u32>,
    total_insts: u64,
    pending: Vec<DynInst>,
}

impl BlockStreamBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one dynamic instruction, sealing the current segment if it is
    /// a control transfer.
    pub(crate) fn push(&mut self, inst: DynInst) {
        let seal = inst.ctrl.is_some();
        self.pending.push(inst);
        if seal {
            let seg = std::mem::take(&mut self.pending);
            let id = self.intern(&seg);
            self.push_record(id);
        }
    }

    /// Interns a complete segment, returning its template id. Identical
    /// segments (same instructions, byte for byte) share one template.
    ///
    /// # Panics
    ///
    /// Panics if `insts` violates the [`SegTemplate`] invariants.
    pub fn intern(&mut self, insts: &[DynInst]) -> u32 {
        let key = SegKey::of(insts);
        if let Some(candidates) = self.index.get(&key) {
            for &id in candidates {
                if self.templates[id as usize].insts() == insts {
                    return id;
                }
            }
        }
        let id = u32::try_from(self.templates.len()).expect("more than u32::MAX templates");
        self.templates.push(SegTemplate::new(insts.to_vec()));
        self.index.entry(key).or_default().push(id);
        id
    }

    /// Appends a dynamic record executing template `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a template of this builder.
    pub fn push_record(&mut self, id: u32) {
        let len = self.templates[id as usize].len() as u64;
        self.records.push(id);
        self.total_insts += len;
    }

    /// Seals any trailing cut segment and returns the finished stream.
    #[must_use]
    pub fn finish(mut self) -> BlockStream {
        if !self.pending.is_empty() {
            let seg = std::mem::take(&mut self.pending);
            let id = self.intern(&seg);
            self.push_record(id);
        }
        BlockStream {
            templates: self.templates.into_boxed_slice(),
            records: self.records.into_boxed_slice(),
            total_insts: self.total_insts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DynCtrl;

    fn alu(addr: u64) -> DynInst {
        DynInst::simple(Addr::new(addr), OpClass::IntAlu, None, [None, None])
    }

    fn nop(addr: u64) -> DynInst {
        DynInst::simple(Addr::new(addr), OpClass::Nop, None, [None, None])
    }

    fn branch(addr: u64, taken: bool, target: u64) -> DynInst {
        DynInst {
            addr: Addr::new(addr),
            op: OpClass::CondBranch,
            dest: None,
            srcs: [None, None],
            next_pc: Addr::new(if taken { target } else { addr + 4 }),
            ctrl: Some(DynCtrl {
                taken,
                target: Addr::new(target),
                link: None,
            }),
        }
    }

    #[test]
    fn empty_trace_encodes_to_empty_stream() {
        let s = BlockStream::from_insts(&[]);
        assert_eq!(s.total_insts(), 0);
        assert_eq!(s.records().len(), 0);
        assert_eq!(s.templates().len(), 0);
        assert!(s.materialize().is_empty());
        assert_eq!(s.stats().compression, 1.0);
    }

    #[test]
    fn taken_branch_boundaries_split_segments_exactly() {
        // run of 2 ending in taken branch, then run of 1 ending in not-taken
        // branch, then a straddling cut tail of 2 plain instructions.
        let trace = vec![
            alu(0x100),
            branch(0x104, true, 0x200),
            branch(0x200, false, 0x100),
            alu(0x204),
            alu(0x208),
        ];
        let s = BlockStream::from_insts(&trace);
        assert_eq!(s.records().len(), 3);
        assert_eq!(s.total_insts(), 5);
        let segs: Vec<_> = s.records().iter().map(|&id| s.template(id)).collect();
        assert_eq!(segs[0].len(), 2);
        assert_eq!(segs[0].terminal().unwrap().addr, Addr::new(0x104));
        assert_eq!(segs[1].len(), 1);
        assert!(segs[2].is_cut());
        assert_eq!(segs[2].len(), 2);
        assert_eq!(s.materialize(), trace);
    }

    #[test]
    fn repeated_segments_intern_to_one_template() {
        let body = [alu(0x100), branch(0x104, true, 0x100)];
        let mut trace = Vec::new();
        for _ in 0..100 {
            trace.extend_from_slice(&body);
        }
        let s = BlockStream::from_insts(&trace);
        assert_eq!(s.records().len(), 100);
        assert_eq!(s.templates().len(), 1);
        assert!(s.records().iter().all(|&id| id == 0));
        assert_eq!(s.materialize(), trace);
        let st = s.stats();
        assert_eq!(st.insts, 200);
        assert!(st.compression > 10.0, "compression {}", st.compression);
    }

    #[test]
    fn direction_is_part_of_template_identity() {
        // Same static branch, different dynamic direction: two templates.
        let trace = vec![
            branch(0x104, true, 0x100),
            branch(0x104, false, 0x100),
            branch(0x104, true, 0x100),
        ];
        let s = BlockStream::from_insts(&trace);
        assert_eq!(s.templates().len(), 2);
        assert_eq!(s.records(), &[0, 1, 0]);
        assert_eq!(s.materialize(), trace);
    }

    #[test]
    fn per_op_class_counts_are_exact() {
        let trace = vec![
            alu(0x100),
            nop(0x104),
            DynInst::simple(Addr::new(0x108), OpClass::Load, None, [None, None]),
            nop(0x10c),
            branch(0x110, true, 0x100),
        ];
        let s = BlockStream::from_insts(&trace);
        let t = s.template(s.records()[0]);
        assert_eq!(t.op_count(OpClass::IntAlu), 1);
        assert_eq!(t.op_count(OpClass::Nop), 2);
        assert_eq!(t.op_count(OpClass::Load), 1);
        assert_eq!(t.op_count(OpClass::CondBranch), 1);
        assert_eq!(t.counts.iter().sum::<u32>(), 5);
        // Prefix nop counts over partial ranges.
        assert_eq!(t.nops_in(0..5), 2);
        assert_eq!(t.nops_in(0..2), 1);
        assert_eq!(t.nops_in(2..3), 0);
        assert_eq!(t.nops_in(3..5), 1);
        assert_eq!(t.nops_in(1..1), 0);
    }

    #[test]
    fn single_control_instruction_trace() {
        let trace = vec![branch(0x100, true, 0x300)];
        let s = BlockStream::from_insts(&trace);
        assert_eq!(s.records().len(), 1);
        let t = s.template(s.records()[0]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_cut());
        assert_eq!(t.start_addr(), Addr::new(0x100));
        assert_eq!(t.next_pc(), Addr::new(0x300));
        assert!(t.sequential());
        assert_eq!(s.materialize(), trace);
    }

    #[test]
    fn irregular_trace_is_flagged_non_sequential_and_roundtrips() {
        // A run whose addresses do not fall through: legal input, preserved
        // verbatim, but marked non-sequential so the fast fetch path walks it
        // instruction by instruction.
        let trace = vec![alu(0x100), alu(0x500), branch(0x504, false, 0x100)];
        let s = BlockStream::from_insts(&trace);
        assert_eq!(s.records().len(), 1);
        assert!(!s.template(s.records()[0]).sequential());
        assert_eq!(s.materialize(), trace);
    }

    #[test]
    fn intern_then_push_record_matches_push_encoding() {
        let seg_a = vec![alu(0x100), branch(0x104, true, 0x100)];
        let seg_b = vec![branch(0x104, false, 0x100)];
        let mut b = BlockStreamBuilder::new();
        let a = b.intern(&seg_a);
        let a2 = b.intern(&seg_a);
        assert_eq!(a, a2);
        let bb = b.intern(&seg_b);
        assert_ne!(a, bb);
        b.push_record(a);
        b.push_record(bb);
        b.push_record(a);
        let s1 = b.finish();

        let mut flat = Vec::new();
        flat.extend_from_slice(&seg_a);
        flat.extend_from_slice(&seg_b);
        flat.extend_from_slice(&seg_a);
        let s2 = BlockStream::from_insts(&flat);
        assert_eq!(s1, s2);
    }
}
