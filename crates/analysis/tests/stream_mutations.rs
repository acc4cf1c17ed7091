//! Mutation tests for the block-stream structural pass: corrupt one
//! invariant of a valid stream and assert the verifier reports exactly the
//! intended rule.
//!
//! Corruptions are assembled through [`BlockStream::from_parts`], the
//! unchecked escape hatch that exists precisely so these tests (and future
//! deserializers) have something for the pass to catch.

use fetchmech_analysis::{verify_stream, Diagnostic, Severity};
use fetchmech_isa::{
    Addr, BlockStream, DynCtrl, DynInst, Layout, LayoutOptions, OpClass, SegTemplate,
};
use fetchmech_workloads::{suite, InputId};

fn assert_fires(diags: &[Diagnostic], rule: &str, severity: Severity) {
    assert!(
        diags
            .iter()
            .any(|d| d.rule_id == rule && d.severity == severity),
        "expected {rule} at {severity:?}; got {:?}",
        diags.iter().map(|d| d.rule_id).collect::<Vec<_>>()
    );
}

fn assert_clean(diags: &[Diagnostic]) {
    assert!(
        !diags.iter().any(|d| d.severity == Severity::Error),
        "expected a clean stream; got {diags:?}"
    );
}

fn alu(addr: u64) -> DynInst {
    DynInst::simple(Addr::new(addr), OpClass::IntAlu, None, [None, None])
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

/// A well-formed two-template stream: a loop body taken twice, then a cut
/// tail where the trace ended mid-iteration.
fn good_parts() -> (Vec<SegTemplate>, Vec<u32>, u64) {
    let body = SegTemplate::new(vec![alu(0x100), branch(0x104, true, 0x100)]);
    let tail = SegTemplate::new(vec![alu(0x100), alu(0x104)]);
    assert!(tail.is_cut());
    (vec![body, tail], vec![0, 0, 1], 6)
}

#[test]
fn native_suite_streams_are_clean() {
    for name in ["compress", "tomcatv"] {
        let w = suite::benchmark(name).expect("known benchmark");
        let layout = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let stream = w.block_stream(&layout, InputId::TEST, 3_000);
        assert_clean(&verify_stream(&stream));
    }
}

#[test]
fn hand_assembled_consistent_stream_is_clean() {
    let (templates, records, total) = good_parts();
    let s = BlockStream::from_parts(templates, records, total);
    assert_clean(&verify_stream(&s));
}

#[test]
fn out_of_range_record_fires_range_rule() {
    let (templates, mut records, total) = good_parts();
    records[1] = 7; // only templates 0 and 1 exist
    let s = BlockStream::from_parts(templates, records, total);
    let diags = verify_stream(&s);
    assert_fires(&diags, "stream.record-template-range", Severity::Error);
    // The bogus record's instructions are also missing from the total.
    assert_fires(&diags, "stream.total-insts", Severity::Error);
}

#[test]
fn wrong_instruction_total_fires_total_rule() {
    let (templates, records, _) = good_parts();
    let s = BlockStream::from_parts(templates, records, 5);
    assert_fires(&verify_stream(&s), "stream.total-insts", Severity::Error);
}

#[test]
fn cut_segment_before_the_end_fires_cut_rule() {
    let (templates, _, _) = good_parts();
    // Template 1 is the cut tail; schedule it in the middle.
    let s = BlockStream::from_parts(templates, vec![0, 1, 0], 6);
    assert_fires(&verify_stream(&s), "stream.cut-final-only", Severity::Error);
}

#[test]
fn unreferenced_template_warns_live_rule() {
    let (templates, _, _) = good_parts();
    let s = BlockStream::from_parts(templates, vec![0, 0], 4);
    let diags = verify_stream(&s);
    assert_fires(&diags, "stream.template-live", Severity::Warning);
    assert_clean(&diags); // dead weight is not an error
}

#[test]
fn broken_record_chain_warns_linkage_rule() {
    let body = SegTemplate::new(vec![alu(0x100), branch(0x104, true, 0x100)]);
    // Starts at 0x200, but the predecessor resumes at 0x100.
    let stranger = SegTemplate::new(vec![alu(0x200)]);
    let s = BlockStream::from_parts(vec![body, stranger], vec![0, 1], 3);
    assert_fires(
        &verify_stream(&s),
        "stream.record-linkage",
        Severity::Warning,
    );
}
