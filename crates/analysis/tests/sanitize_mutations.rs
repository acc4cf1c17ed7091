//! Mutation testing for the cycle sanitizer: feed it event streams with one
//! deliberately injected microarchitectural bug each and assert the *named*
//! rule catches it.
//!
//! The sanitizer's value is that divergence between the simulator and the
//! paper's delivery rules cannot pass silently; each test here is one
//! divergence the engine must keep catching. A well-formed stream is checked
//! first — a rule that fires on legal behaviour is as broken as one that
//! misses a bug.

use fetchmech_analysis::sanitize::{
    check_scheme_dominance, DOMINANCE_TOLERANCE, RULE_BANK_CONFLICT, RULE_COLLAPSE,
    RULE_CORE_STATE, RULE_DOMINANCE, RULE_EXACTLY_ONCE, RULE_LINE_PAIR, RULE_MISPREDICT_TAIL,
    RULE_PACKET_ORDER, RULE_PACKET_WIDTH, RULE_PREDICTOR, RULE_REDIRECT_STALL, RULE_SEQ_BOUNDARY,
    RULE_SPEC_DEPTH, RULE_TAKEN_BREAK, RULE_TOTALS,
};
use fetchmech_analysis::{CycleSanitizer, Diagnostic, FetchEnv, SanitizeConfig, Severity};
use fetchmech_bpred::BtbStats;
use fetchmech_isa::{Addr, DynCtrl, DynInst, OpClass};
use fetchmech_pipeline::{FetchPacket, FetchedInst, SchemeKind};

/// 4-wide machine, 16-byte (4-instruction) blocks, 2 banks.
fn env(scheme: SchemeKind, track_issue: bool) -> FetchEnv {
    FetchEnv {
        scheme,
        issue_rate: 4,
        block_bytes: 16,
        spec_depth: 4,
        fetch_penalty: 2,
        track_issue,
    }
}

fn alu(addr: u64) -> DynInst {
    DynInst::simple(Addr::new(addr), OpClass::IntAlu, None, [None, None])
}

fn nop(addr: u64) -> DynInst {
    DynInst::simple(Addr::new(addr), OpClass::Nop, None, [None, None])
}

fn jmp(addr: u64, target: u64) -> DynInst {
    DynInst {
        addr: Addr::new(addr),
        op: OpClass::Jump,
        dest: None,
        srcs: [None, None],
        next_pc: Addr::new(target),
        ctrl: Some(DynCtrl {
            taken: true,
            target: Addr::new(target),
            link: None,
        }),
    }
}

fn cond(addr: u64, taken: bool, target: u64) -> DynInst {
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

fn packet(insts: &[DynInst]) -> FetchPacket {
    FetchPacket {
        insts: insts
            .iter()
            .map(|&inst| FetchedInst {
                inst,
                mispredicted: false,
            })
            .collect(),
    }
}

/// Like [`packet`] but the last instruction carries the mispredict flag.
fn packet_mis(insts: &[DynInst]) -> FetchPacket {
    let mut p = packet(insts);
    p.insts.last_mut().expect("non-empty packet").mispredicted = true;
    p
}

/// Cumulative BTB statistics consistent with `controls` transfers so far.
fn btb(controls: u64) -> BtbStats {
    BtbStats {
        lookups: controls,
        hits: controls,
        updates: controls,
        allocations: 0,
        evictions: 0,
    }
}

fn assert_fires(diags: &[Diagnostic], rule: &str) {
    assert!(
        diags
            .iter()
            .any(|d| d.rule_id == rule && d.severity == Severity::Error),
        "expected {rule} to fire, got: {diags:#?}"
    );
}

// ---------------------------------------------------------------------------
// Baseline: a legal multi-cycle stream produces zero findings.
// ---------------------------------------------------------------------------

#[test]
fn well_formed_stream_is_clean() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Sequential, true));
    // Cycle 0: a full-width packet from one block, all issued.
    let p0 = packet(&[alu(0x1000), alu(0x1004), alu(0x1008), alu(0x100c)]);
    san.observe_packet(0, 0, &p0, &btb(0));
    for fi in &p0.insts {
        san.observe_issue(0, fi);
    }
    san.observe_core_state(0, Ok(()));
    // Cycle 1: a mispredicted conditional ends the packet (chained: starts
    // at the previous packet's next_pc).
    let p1 = packet_mis(&[cond(0x1010, true, 0x2000)]);
    san.observe_packet(1, 0, &p1, &btb(1));
    san.observe_issue(1, &p1.insts[0]);
    // Cycles 2-4: fetch stalls (empty packets), the branch executes at
    // cycle 3, delivery legally resumes at 3 + fetch_penalty = 5.
    san.observe_packet(2, 1, &packet(&[]), &btb(1));
    san.observe_resolved(3);
    san.observe_packet(4, 0, &packet(&[]), &btb(1));
    let p2 = packet(&[alu(0x2000), nop(0x2004)]);
    san.observe_packet(5, 0, &p2, &btb(1));
    san.observe_issue(5, &p2.insts[0]);
    san.observe_squash(5, &p2.insts[1]);
    san.observe_core_state(5, Ok(()));
    san.finish(6, 7);
    assert!(
        san.diagnostics().is_empty(),
        "legal stream misreported: {:#?}",
        san.diagnostics()
    );
}

// ---------------------------------------------------------------------------
// Conservation mutations.
// ---------------------------------------------------------------------------

#[test]
fn double_issue_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Sequential, true));
    let p = packet(&[alu(0x1000)]);
    san.observe_packet(0, 0, &p, &btb(0));
    san.observe_issue(0, &p.insts[0]);
    san.observe_issue(0, &p.insts[0]); // bug: issued twice
    assert_fires(san.diagnostics(), RULE_EXACTLY_ONCE);
}

#[test]
fn out_of_order_issue_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Sequential, true));
    let p = packet(&[alu(0x1000), alu(0x1004)]);
    san.observe_packet(0, 0, &p, &btb(0));
    san.observe_issue(0, &p.insts[1]); // bug: younger instruction first
    assert_fires(san.diagnostics(), RULE_EXACTLY_ONCE);
}

#[test]
fn squashing_a_real_instruction_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Sequential, true));
    let p = packet(&[alu(0x1000)]);
    san.observe_packet(0, 0, &p, &btb(0));
    san.observe_squash(0, &p.insts[0]); // bug: only nops may be squashed
    assert_fires(san.diagnostics(), RULE_EXACTLY_ONCE);
}

#[test]
fn lost_instruction_breaks_totals() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Sequential, true));
    let p = packet(&[alu(0x1000), alu(0x1004)]);
    san.observe_packet(0, 0, &p, &btb(0));
    san.observe_issue(0, &p.insts[0]);
    san.finish(1, 2); // bug: the second instruction vanished
    assert_fires(san.diagnostics(), RULE_TOTALS);
}

#[test]
fn delivered_count_mismatch_breaks_totals() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Sequential, false));
    san.observe_packet(0, 0, &packet(&[alu(0x1000)]), &btb(0));
    san.finish(1, 7); // bug: unit claims 7 delivered, packets summed to 1
    assert_fires(san.diagnostics(), RULE_TOTALS);
}

#[test]
fn over_wide_packet_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Perfect, false));
    let p = packet(&[
        alu(0x1000),
        alu(0x1004),
        alu(0x1008),
        alu(0x100c),
        alu(0x1010), // bug: 5 instructions on a 4-wide machine
    ]);
    san.observe_packet(0, 0, &p, &btb(0));
    assert_fires(san.diagnostics(), RULE_PACKET_WIDTH);
}

// ---------------------------------------------------------------------------
// Fetch-legality mutations.
// ---------------------------------------------------------------------------

#[test]
fn unchained_packet_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Sequential, false));
    // bug: 0x1000's next_pc is 0x1004, not 0x100c (an instruction skipped).
    san.observe_packet(0, 0, &packet(&[alu(0x1000), alu(0x100c)]), &btb(0));
    assert_fires(san.diagnostics(), RULE_PACKET_ORDER);
}

#[test]
fn cross_packet_chain_break_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Sequential, false));
    san.observe_packet(0, 0, &packet(&[alu(0x1000)]), &btb(0));
    // bug: previous packet's next_pc was 0x1004 but fetch restarted elsewhere.
    san.observe_packet(1, 0, &packet(&[alu(0x3000)]), &btb(0));
    assert_fires(san.diagnostics(), RULE_PACKET_ORDER);
}

#[test]
fn sequential_block_crossing_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Sequential, false));
    // bug: 0x1008..0x1010 spans the 0x1000 and 0x1010 blocks in one cycle.
    san.observe_packet(
        0,
        0,
        &packet(&[alu(0x1008), alu(0x100c), alu(0x1010)]),
        &btb(0),
    );
    assert_fires(san.diagnostics(), RULE_SEQ_BOUNDARY);
}

#[test]
fn interleaved_nonadjacent_pair_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::InterleavedSequential, false));
    // bug: 0x3000 is not the block after 0x1000 (and the scheme cannot
    // follow a taken transfer at all).
    san.observe_packet(0, 0, &packet(&[jmp(0x1000, 0x3000), alu(0x3000)]), &btb(1));
    assert_fires(san.diagnostics(), RULE_SEQ_BOUNDARY);
    assert_fires(san.diagnostics(), RULE_TAKEN_BREAK);
}

#[test]
fn same_bank_pair_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::BankedSequential, false));
    // bug: blocks 0x1000 and 0x2000 both map to bank 0 of 2.
    san.observe_packet(0, 0, &packet(&[jmp(0x1000, 0x2000), alu(0x2000)]), &btb(1));
    assert_fires(san.diagnostics(), RULE_BANK_CONFLICT);
}

#[test]
fn three_block_packet_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::CollapsingBuffer, false));
    // bug: three distinct blocks in one cycle — hardware reads a pair.
    let p = packet(&[jmp(0x1000, 0x1010), jmp(0x1010, 0x1020), alu(0x1020)]);
    san.observe_packet(0, 0, &p, &btb(2));
    assert_fires(san.diagnostics(), RULE_LINE_PAIR);
}

#[test]
fn sequential_delivery_past_taken_transfer_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Sequential, false));
    // bug: intra-block jump, so geometry is legal — but a sequential unit
    // still cannot realign within the cycle.
    san.observe_packet(0, 0, &packet(&[jmp(0x1000, 0x1008), alu(0x1008)]), &btb(1));
    assert_fires(san.diagnostics(), RULE_TAKEN_BREAK);
}

#[test]
fn backward_collapse_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::CollapsingBuffer, false));
    // bug: the collapsing buffer only merges *forward* intra-block targets.
    san.observe_packet(0, 0, &packet(&[jmp(0x1008, 0x1000), alu(0x1000)]), &btb(1));
    assert_fires(san.diagnostics(), RULE_COLLAPSE);
}

#[test]
fn mid_packet_mispredict_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Perfect, false));
    let mut p = packet(&[cond(0x1000, true, 0x1008), alu(0x1008)]);
    p.insts[0].mispredicted = true; // bug: delivery continued past it
    san.observe_packet(0, 0, &p, &btb(1));
    assert_fires(san.diagnostics(), RULE_MISPREDICT_TAIL);
}

#[test]
fn delivery_while_unresolved_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Perfect, false));
    san.observe_packet(0, 0, &packet_mis(&[cond(0x1000, true, 0x2000)]), &btb(1));
    // bug: the mispredict never resolved, yet fetch delivered again.
    san.observe_packet(1, 0, &packet(&[alu(0x2000)]), &btb(1));
    assert_fires(san.diagnostics(), RULE_REDIRECT_STALL);
}

#[test]
fn delivery_inside_redirect_penalty_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Perfect, false));
    san.observe_packet(0, 0, &packet_mis(&[cond(0x1000, true, 0x2000)]), &btb(1));
    san.observe_resolved(3);
    // bug: resolution at 3 plus a 2-cycle penalty allows cycle 5 at the
    // earliest; delivering at 4 ignores the redirect latency.
    san.observe_packet(4, 0, &packet(&[alu(0x2000)]), &btb(1));
    assert_fires(san.diagnostics(), RULE_REDIRECT_STALL);
}

#[test]
fn spurious_resolution_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Perfect, false));
    san.observe_resolved(0); // bug: nothing was outstanding
    assert_fires(san.diagnostics(), RULE_REDIRECT_STALL);
}

#[test]
fn fetch_past_speculation_depth_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Perfect, false));
    // bug: 5 unresolved predicted branches on a spec_depth-4 machine.
    san.observe_packet(0, 5, &packet(&[alu(0x1000)]), &btb(0));
    assert_fires(san.diagnostics(), RULE_SPEC_DEPTH);
}

// ---------------------------------------------------------------------------
// Predictor and core mutations.
// ---------------------------------------------------------------------------

#[test]
fn unconsulted_btb_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Perfect, false));
    // bug: a control transfer was delivered but the BTB saw no traffic.
    san.observe_packet(0, 0, &packet(&[jmp(0x1000, 0x2000)]), &btb(0));
    assert_fires(san.diagnostics(), RULE_PREDICTOR);
}

#[test]
fn phantom_btb_traffic_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Perfect, false));
    // bug: the BTB was consulted twice for a packet with no controls.
    san.observe_packet(0, 0, &packet(&[alu(0x1000)]), &btb(2));
    assert_fires(san.diagnostics(), RULE_PREDICTOR);
}

#[test]
fn core_audit_failure_is_caught() {
    let mut san = CycleSanitizer::new(env(SchemeKind::Perfect, true));
    san.observe_core_state(0, Err("free list lost a register".to_string()));
    assert_fires(san.diagnostics(), RULE_CORE_STATE);
}

#[test]
fn dominance_inversion_is_caught() {
    // bug: a sequential fetch unit out-issuing the perfect upper bound.
    let diags = check_scheme_dominance(
        "mutant",
        &[
            (SchemeKind::Perfect, 2.0),
            (SchemeKind::CollapsingBuffer, 2.4),
            (SchemeKind::Sequential, 3.0),
        ],
        DOMINANCE_TOLERANCE,
    );
    assert_fires(&diags, RULE_DOMINANCE);
}

// ---------------------------------------------------------------------------
// Reporting discipline.
// ---------------------------------------------------------------------------

#[test]
fn report_cap_bounds_a_systematically_broken_run() {
    let cfg = SanitizeConfig::new();
    let cap = cfg.max_reports_per_rule;
    let mut san = CycleSanitizer::with_config(env(SchemeKind::Sequential, false), cfg);
    // A run broken the same way every cycle must not flood the sink. Chain
    // the over-wide packets legally so only packet-width fires.
    let mut base = 0x1000u64;
    for cycle in 0..(cap as u64 + 12) {
        let p = packet(&[
            alu(base),
            alu(base + 4),
            alu(base + 8),
            alu(base + 12),
            nop(base + 16),
        ]);
        san.observe_packet(cycle, 0, &p, &btb(0));
        base += 20;
    }
    let width_reports = san
        .diagnostics()
        .iter()
        .filter(|d| d.rule_id == RULE_PACKET_WIDTH)
        .count();
    assert_eq!(width_reports, cap, "{:#?}", san.diagnostics());
}
