//! The cycle-level sanitizer: microarchitectural invariant checks over the
//! packet/issue/resolve event stream of a running fetch simulation.
//!
//! The static passes in this crate verify artifacts *before* simulation; the
//! sanitizer verifies the simulation itself. The simulator (the `fetchmech`
//! core crate) feeds a [`CycleSanitizer`] one event per pipeline action —
//! every fetch packet, every dispatched or squashed instruction, every
//! mispredict resolution, plus a per-cycle snapshot of the out-of-order
//! core's self-audit — and the sanitizer replays the paper's delivery rules
//! as a redundant, independently-coded model. Divergence becomes a
//! [`Diagnostic`] with a stable `sanitize.*` rule id.
//!
//! The rule families:
//!
//! * **conservation** — every fetched instruction is issued or squashed
//!   exactly once, packets never exceed the issue width, and the end-of-run
//!   totals balance (`fetched == issued + squashed`);
//! * **fetch legality** — packets respect each scheme's geometry: one block
//!   for *sequential*, an adjacent pair for *interleaved*, conflict-free
//!   bank pairs for *banked*/*collapsing*, in-order delivery, forward-only
//!   intra-block collapsing, at most one inter-block crossing, and no
//!   delivery past a taken transfer the scheme cannot align;
//! * **predictor** — the BTB is consulted and trained exactly once per
//!   delivered control transfer, never while fetch is stalled;
//! * **core** — the out-of-order core's structural self-audit
//!   ([`OooCore::audit_invariants`](fetchmech_pipeline::OooCore::audit_invariants))
//!   holds every cycle;
//! * **dominance** — across schemes on one workload, effective issue rates
//!   obey the paper's ordering (perfect ≥ collapsing ≥ banked/interleaved ≥
//!   sequential), checked by [`check_scheme_dominance`].
//!
//! Every rule can be disabled individually through [`SanitizeConfig`]; the
//! per-rule report cap keeps a systematically-broken run from flooding the
//! sink.

use std::collections::VecDeque;

use fetchmech_bpred::BtbStats;
use fetchmech_isa::{Addr, OpClass};
use fetchmech_pipeline::{FetchPacket, FetchedInst, SchemeKind};

use crate::diag::{Diagnostic, Location, Severity};

/// Packet exceeds the machine's issue width.
pub const RULE_PACKET_WIDTH: &str = "sanitize.conservation.packet-width";
/// An instruction was issued or squashed that was never fetched, out of
/// order, or of the wrong kind (double issue, lost instruction, non-nop
/// squash).
pub const RULE_EXACTLY_ONCE: &str = "sanitize.conservation.exactly-once";
/// End-of-run totals do not balance (`fetched != issued + squashed`, or the
/// sanitizer and the fetch unit disagree on the delivered count).
pub const RULE_TOTALS: &str = "sanitize.conservation.totals";
/// Packet instructions are not a chained subsequence of the dynamic trace
/// (`prev.next_pc != cur.addr`).
pub const RULE_PACKET_ORDER: &str = "sanitize.fetch.packet-order";
/// A hardware packet touched more than two cache blocks, or returned to an
/// earlier block after moving on.
pub const RULE_LINE_PAIR: &str = "sanitize.fetch.line-pair";
/// The sequential scheme crossed a cache-block boundary in one cycle, or the
/// interleaved scheme's second block was not the next sequential block.
pub const RULE_SEQ_BOUNDARY: &str = "sanitize.fetch.sequential-boundary";
/// A banked scheme read two blocks of the same bank in one cycle.
pub const RULE_BANK_CONFLICT: &str = "sanitize.fetch.bank-conflict";
/// Delivery continued past a taken control transfer the scheme cannot fetch
/// across (or crossed blocks more than once in a cycle).
pub const RULE_TAKEN_BREAK: &str = "sanitize.fetch.taken-break";
/// The collapsing buffer collapsed a non-forward intra-block target.
pub const RULE_COLLAPSE: &str = "sanitize.fetch.collapse-legality";
/// A mispredicted instruction was not the last instruction of its packet.
pub const RULE_MISPREDICT_TAIL: &str = "sanitize.fetch.mispredict-tail";
/// The unit delivered instructions while stalled on a mispredict redirect
/// (before resolution, or within the fetch penalty after it).
pub const RULE_REDIRECT_STALL: &str = "sanitize.fetch.redirect-stall";
/// An instruction was fetched past the machine's branch-speculation depth.
pub const RULE_SPEC_DEPTH: &str = "sanitize.fetch.spec-depth";
/// BTB lookup/update counts diverged from the delivered control transfers.
pub const RULE_PREDICTOR: &str = "sanitize.predictor.update-accounting";
/// The out-of-order core's structural self-audit failed.
pub const RULE_CORE_STATE: &str = "sanitize.core.state";
/// Per-workload effective issue rates violate the paper's scheme ordering.
pub const RULE_DOMINANCE: &str = "sanitize.dominance.scheme-order";
/// A measured EIR exceeds the static fetch-geometry upper bound computed by
/// [`crate::geometry::analyze_geometry`] from the program, layout, and
/// machine model alone.
pub const RULE_STATIC_BOUND: &str = "sanitize.static_bound";

/// Every sanitizer rule id, with a one-line summary (the `sanitize --list`
/// catalog).
pub const RULES: &[(&str, &str)] = &[
    (RULE_PACKET_WIDTH, "packets never exceed the issue width"),
    (
        RULE_EXACTLY_ONCE,
        "every fetched instruction is issued or squashed exactly once, in order",
    ),
    (
        RULE_TOTALS,
        "end-of-run totals balance: fetched == issued + squashed",
    ),
    (
        RULE_PACKET_ORDER,
        "packets chain through the trace: prev.next_pc == cur.addr",
    ),
    (
        RULE_LINE_PAIR,
        "hardware packets touch at most two cache blocks, never revisiting one",
    ),
    (
        RULE_SEQ_BOUNDARY,
        "sequential stays in one block; interleaved pairs adjacent blocks",
    ),
    (
        RULE_BANK_CONFLICT,
        "banked schemes never read two same-bank blocks in one cycle",
    ),
    (
        RULE_TAKEN_BREAK,
        "no delivery past a taken transfer the scheme cannot align",
    ),
    (
        RULE_COLLAPSE,
        "collapsing buffer only collapses forward intra-block targets",
    ),
    (
        RULE_MISPREDICT_TAIL,
        "a mispredicted transfer ends its packet",
    ),
    (
        RULE_REDIRECT_STALL,
        "no delivery while stalled on a mispredict redirect",
    ),
    (
        RULE_SPEC_DEPTH,
        "fetch never runs past the branch-speculation depth",
    ),
    (
        RULE_PREDICTOR,
        "BTB consulted and trained exactly once per delivered control transfer",
    ),
    (
        RULE_CORE_STATE,
        "the out-of-order core's structural self-audit holds every cycle",
    ),
    (
        RULE_DOMINANCE,
        "EIR ordering: perfect >= collapsing >= banked/interleaved >= sequential",
    ),
    (
        RULE_STATIC_BOUND,
        "measured EIR never exceeds the static fetch-geometry upper bound",
    ),
];

/// Absolute EIR slack tolerated by the dominance check: warm-up effects and
/// predictor-state noise make near-ties legitimate.
pub const DOMINANCE_TOLERANCE: f64 = 0.05;

/// Which rules run, and how loudly.
#[derive(Debug, Clone)]
pub struct SanitizeConfig {
    disabled: Vec<String>,
    /// Per-rule report cap: once a rule has fired this many times further
    /// findings are dropped (a systematically-broken run would otherwise
    /// flood the sink with one finding per cycle).
    pub max_reports_per_rule: usize,
    /// Absolute EIR slack for [`check_scheme_dominance`].
    pub dominance_tolerance: f64,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        Self {
            disabled: Vec::new(),
            max_reports_per_rule: 8,
            dominance_tolerance: DOMINANCE_TOLERANCE,
        }
    }
}

impl SanitizeConfig {
    /// The default configuration: every rule enabled.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Disables one rule by id (unknown ids are ignored, so stale CLI flags
    /// degrade gracefully).
    pub fn disable(&mut self, rule: impl Into<String>) {
        self.disabled.push(rule.into());
    }

    /// Returns `true` if `rule` should run.
    #[must_use]
    pub(crate) fn is_enabled(&self, rule: &str) -> bool {
        !self.disabled.iter().any(|d| d == rule)
    }
}

/// The machine parameters the sanitizer replays delivery rules against.
///
/// Mirrors the simulator's `FetchConfig`, but lives here so the checker has
/// no dependency on the simulator it audits.
#[derive(Debug, Clone, Copy)]
pub struct FetchEnv {
    /// The alignment scheme under check.
    pub scheme: SchemeKind,
    /// Maximum instructions per packet.
    pub issue_rate: u32,
    /// Cache-block size in bytes.
    pub block_bytes: u64,
    /// Number of cache banks (`block_index % banks` is the bank map).
    pub banks: u32,
    /// Branch-speculation depth limit.
    pub spec_depth: u32,
    /// Cycles between mispredict resolution and the earliest redelivery.
    pub fetch_penalty: u32,
    /// `true` when the pipeline reports issue/squash events (full
    /// simulation); `false` for fetch-only EIR measurement, which skips the
    /// exactly-once ledger.
    pub track_issue: bool,
}

/// One not-yet-retired fetched instruction in the conservation ledger.
#[derive(Debug, Clone, Copy)]
struct PendingInst {
    addr: Addr,
    op: OpClass,
}

/// The cycle-level invariant engine. See the [module docs](self).
#[derive(Debug)]
pub struct CycleSanitizer {
    env: FetchEnv,
    cfg: SanitizeConfig,
    diags: Vec<Diagnostic>,
    /// Per-rule fire counts (parallel to [`RULES`]) for the report cap.
    fired: Vec<usize>,
    /// Fetched but not yet issued/squashed, in delivery order.
    pending: VecDeque<PendingInst>,
    fetched: u64,
    issued: u64,
    squashed: u64,
    /// BTB statistics observed at the previous packet event.
    prev_btb: BtbStats,
    /// Set after a packet ended mispredicted; cleared by
    /// [`CycleSanitizer::observe_resolved`].
    waiting_resolve: bool,
    /// Earliest cycle delivery may resume after the last resolution.
    resume_not_before: u64,
    /// `next_pc` of the last instruction of the previous packet, for
    /// cross-packet chaining of the correct-path trace.
    expect_pc: Option<Addr>,
}

impl CycleSanitizer {
    /// Creates a sanitizer with the default configuration.
    #[must_use]
    pub fn new(env: FetchEnv) -> Self {
        Self::with_config(env, SanitizeConfig::default())
    }

    /// Creates a sanitizer with an explicit rule configuration.
    #[must_use]
    pub fn with_config(env: FetchEnv, cfg: SanitizeConfig) -> Self {
        Self {
            env,
            cfg,
            diags: Vec::new(),
            fired: vec![0; RULES.len()],
            pending: VecDeque::new(),
            fetched: 0,
            issued: 0,
            squashed: 0,
            prev_btb: BtbStats::default(),
            waiting_resolve: false,
            resume_not_before: 0,
            expect_pc: None,
        }
    }

    fn report(&mut self, rule: &'static str, cycle: u64, message: String) {
        if !self.cfg.is_enabled(rule) {
            return;
        }
        let idx = RULES
            .iter()
            .position(|(id, _)| *id == rule)
            .expect("rule id registered in RULES");
        if self.fired[idx] >= self.cfg.max_reports_per_rule {
            return;
        }
        self.fired[idx] += 1;
        self.diags.push(Diagnostic {
            rule_id: rule,
            severity: Severity::Error,
            location: Location::Cycle(cycle),
            message,
        });
    }

    fn bank_of(&self, block: Addr) -> u32 {
        (block.block_index(self.env.block_bytes) % u64::from(self.env.banks.max(1))) as u32
    }

    /// Observes one fetch-unit cycle. Must be called for *every* call the
    /// simulator makes into the fetch unit — empty packets carry stall
    /// information the redirect and predictor rules depend on.
    ///
    /// `unresolved_branches` is the in-flight predicted-conditional count the
    /// simulator passed to the unit; `btb` is the unit's BTB statistics
    /// *after* the cycle.
    pub fn observe_packet(
        &mut self,
        cycle: u64,
        unresolved_branches: u32,
        packet: &FetchPacket,
        btb: &BtbStats,
    ) {
        self.check_predictor_deltas(cycle, packet, btb);
        if packet.is_empty() {
            return;
        }
        self.check_redirect_discipline(cycle, packet);
        self.check_width_and_order(cycle, packet);
        self.check_spec_depth(cycle, unresolved_branches, packet);
        self.check_geometry(cycle, packet);
        self.check_taken_legality(cycle, packet);

        self.fetched += packet.len() as u64;
        if self.env.track_issue {
            for fi in &packet.insts {
                self.pending.push_back(PendingInst {
                    addr: fi.inst.addr,
                    op: fi.inst.op,
                });
            }
        }
        if packet.ends_mispredicted() {
            self.waiting_resolve = true;
            self.expect_pc = None; // redirect: chain restarts at the target
        } else {
            self.expect_pc = packet.insts.last().map(|fi| fi.inst.next_pc);
        }
    }

    /// Observes the pipeline reporting that the outstanding mispredict
    /// executed at `cycle`.
    pub fn observe_resolved(&mut self, cycle: u64) {
        if !self.waiting_resolve {
            self.report(
                RULE_REDIRECT_STALL,
                cycle,
                "mispredict resolution reported with no outstanding mispredict".to_string(),
            );
        }
        self.waiting_resolve = false;
        self.resume_not_before = cycle + u64::from(self.env.fetch_penalty);
    }

    /// Observes one instruction dispatched into the out-of-order core.
    pub fn observe_issue(&mut self, cycle: u64, fi: &FetchedInst) {
        self.retire_pending(cycle, fi, false);
    }

    /// Observes one instruction dropped at dispatch (nop squash: it consumed
    /// fetch bandwidth but never entered the core).
    pub fn observe_squash(&mut self, cycle: u64, fi: &FetchedInst) {
        self.retire_pending(cycle, fi, true);
    }

    /// Observes the out-of-order core's per-cycle structural self-audit.
    pub fn observe_core_state(&mut self, cycle: u64, audit: Result<(), String>) {
        if let Err(msg) = audit {
            self.report(
                RULE_CORE_STATE,
                cycle,
                format!("core self-audit failed: {msg}"),
            );
        }
    }

    /// Finalizes the run: checks end-of-run conservation totals against the
    /// fetch unit's own delivered count.
    pub fn finish(&mut self, cycle: u64, unit_delivered: u64) {
        if self.fetched != unit_delivered {
            self.report(
                RULE_TOTALS,
                cycle,
                format!(
                    "fetch unit reports {unit_delivered} delivered but packets summed to {}",
                    self.fetched
                ),
            );
        }
        if self.env.track_issue {
            if !self.pending.is_empty() {
                self.report(
                    RULE_TOTALS,
                    cycle,
                    format!(
                        "{} fetched instruction(s) were neither issued nor squashed (first: {} {:?})",
                        self.pending.len(),
                        self.pending[0].addr,
                        self.pending[0].op
                    ),
                );
            }
            if self.issued + self.squashed + self.pending.len() as u64 != self.fetched {
                self.report(
                    RULE_TOTALS,
                    cycle,
                    format!(
                        "conservation broken: fetched {} != issued {} + squashed {} + in-flight {}",
                        self.fetched,
                        self.issued,
                        self.squashed,
                        self.pending.len()
                    ),
                );
            }
        }
    }

    /// The findings so far.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Consumes the sanitizer, returning its findings.
    #[must_use]
    pub fn into_diagnostics(self) -> Vec<Diagnostic> {
        self.diags
    }

    /// Returns `true` if any error-severity finding was recorded.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        crate::diag::has_errors(&self.diags)
    }

    fn retire_pending(&mut self, cycle: u64, fi: &FetchedInst, squash: bool) {
        if !self.env.track_issue {
            return;
        }
        let verb = if squash { "squashed" } else { "issued" };
        let Some(head) = self.pending.pop_front() else {
            self.report(
                RULE_EXACTLY_ONCE,
                cycle,
                format!(
                    "{verb} {} {:?} but no fetched instruction is outstanding (double retire?)",
                    fi.inst.addr, fi.inst.op
                ),
            );
            return;
        };
        if head.addr != fi.inst.addr || head.op != fi.inst.op {
            self.report(
                RULE_EXACTLY_ONCE,
                cycle,
                format!(
                    "{verb} {} {:?} but the oldest outstanding fetch is {} {:?} (reorder or skip)",
                    fi.inst.addr, fi.inst.op, head.addr, head.op
                ),
            );
        }
        if squash {
            if head.op != OpClass::Nop {
                self.report(
                    RULE_EXACTLY_ONCE,
                    cycle,
                    format!("squashed a non-nop instruction {} {:?}", head.addr, head.op),
                );
            }
            self.squashed += 1;
        } else {
            self.issued += 1;
        }
    }

    fn check_predictor_deltas(&mut self, cycle: u64, packet: &FetchPacket, btb: &BtbStats) {
        let controls = packet
            .insts
            .iter()
            .filter(|fi| fi.inst.ctrl.is_some())
            .count() as u64;
        let d_lookups = btb.lookups.wrapping_sub(self.prev_btb.lookups);
        let d_updates = btb.updates.wrapping_sub(self.prev_btb.updates);
        if d_lookups != controls {
            self.report(
                RULE_PREDICTOR,
                cycle,
                format!(
                    "BTB looked up {d_lookups} time(s) for a packet with {controls} control transfer(s)"
                ),
            );
        }
        if d_updates != controls {
            self.report(
                RULE_PREDICTOR,
                cycle,
                format!(
                    "BTB trained {d_updates} time(s) for a packet with {controls} resolved control transfer(s)"
                ),
            );
        }
        self.prev_btb = *btb;
    }

    fn check_redirect_discipline(&mut self, cycle: u64, packet: &FetchPacket) {
        debug_assert!(!packet.is_empty());
        if self.waiting_resolve {
            self.report(
                RULE_REDIRECT_STALL,
                cycle,
                format!(
                    "delivered {} instruction(s) while an unresolved mispredict is outstanding",
                    packet.len()
                ),
            );
        } else if cycle < self.resume_not_before {
            self.report(
                RULE_REDIRECT_STALL,
                cycle,
                format!(
                    "delivered during the redirect penalty window (resume allowed at cycle {})",
                    self.resume_not_before
                ),
            );
        }
    }

    fn check_width_and_order(&mut self, cycle: u64, packet: &FetchPacket) {
        if packet.len() as u64 > u64::from(self.env.issue_rate) {
            self.report(
                RULE_PACKET_WIDTH,
                cycle,
                format!(
                    "packet of {} instruction(s) exceeds the issue width {}",
                    packet.len(),
                    self.env.issue_rate
                ),
            );
        }
        // In-order delivery: the packet (and the stream of packets between
        // redirects) chains through the dynamic trace.
        if let (Some(expect), Some(first)) = (self.expect_pc, packet.insts.first()) {
            if first.inst.addr != expect {
                self.report(
                    RULE_PACKET_ORDER,
                    cycle,
                    format!(
                        "packet starts at {} but the previous packet's next_pc was {expect}",
                        first.inst.addr
                    ),
                );
            }
        }
        for pair in packet.insts.windows(2) {
            if pair[1].inst.addr != pair[0].inst.next_pc {
                self.report(
                    RULE_PACKET_ORDER,
                    cycle,
                    format!(
                        "{} is followed by {} but its next_pc is {}",
                        pair[0].inst.addr, pair[1].inst.addr, pair[0].inst.next_pc
                    ),
                );
            }
        }
        // At most one — the last — may be mispredicted.
        for (i, fi) in packet.insts.iter().enumerate() {
            if fi.mispredicted && i + 1 != packet.len() {
                self.report(
                    RULE_MISPREDICT_TAIL,
                    cycle,
                    format!(
                        "mispredicted transfer at {} sits at position {i} of a {}-wide packet",
                        fi.inst.addr,
                        packet.len()
                    ),
                );
            }
            if fi.mispredicted && fi.inst.ctrl.is_none() {
                self.report(
                    RULE_MISPREDICT_TAIL,
                    cycle,
                    format!(
                        "non-control instruction {} flagged mispredicted",
                        fi.inst.addr
                    ),
                );
            }
        }
    }

    fn check_spec_depth(&mut self, cycle: u64, unresolved: u32, packet: &FetchPacket) {
        let mut conds = 0u32;
        for fi in &packet.insts {
            if unresolved + conds > self.env.spec_depth {
                self.report(
                    RULE_SPEC_DEPTH,
                    cycle,
                    format!(
                        "fetched {} with {} unresolved branch(es) against a speculation depth of {}",
                        fi.inst.addr,
                        unresolved + conds,
                        self.env.spec_depth
                    ),
                );
                break;
            }
            if fi.inst.is_cond_branch() {
                conds += 1;
            }
        }
    }

    /// Cache-block legality: collapse the packet to its sequence of distinct
    /// consecutive blocks and check it against the scheme's readable region.
    fn check_geometry(&mut self, cycle: u64, packet: &FetchPacket) {
        if self.env.scheme == SchemeKind::Perfect {
            return; // unlimited alignment: any block sequence is legal
        }
        let bs = self.env.block_bytes;
        let mut segments: Vec<Addr> = Vec::new();
        for fi in &packet.insts {
            let blk = fi.inst.addr.block_base(bs);
            if segments.last() != Some(&blk) {
                segments.push(blk);
            }
        }
        if segments.len() > 2 {
            // Covers both >2 distinct blocks and any revisit (A, B, A).
            self.report(
                RULE_LINE_PAIR,
                cycle,
                format!(
                    "packet touches block sequence {segments:?}; hardware reads at most one block pair per cycle"
                ),
            );
            return;
        }
        match self.env.scheme {
            SchemeKind::Sequential => {
                if segments.len() > 1 {
                    self.report(
                        RULE_SEQ_BOUNDARY,
                        cycle,
                        format!(
                            "sequential fetch crossed from block {} to {} in one cycle",
                            segments[0], segments[1]
                        ),
                    );
                }
            }
            SchemeKind::InterleavedSequential => {
                if segments.len() == 2 {
                    let next = segments[0].add_words(bs / fetchmech_isa::WORD_BYTES);
                    if segments[1] != next {
                        self.report(
                            RULE_SEQ_BOUNDARY,
                            cycle,
                            format!(
                                "interleaved pair must be sequential: got {} after {}, expected {next}",
                                segments[1], segments[0]
                            ),
                        );
                    }
                }
            }
            SchemeKind::BankedSequential | SchemeKind::CollapsingBuffer => {
                if segments.len() == 2 && self.bank_of(segments[0]) == self.bank_of(segments[1]) {
                    self.report(
                        RULE_BANK_CONFLICT,
                        cycle,
                        format!(
                            "blocks {} and {} map to bank {} and were read in one cycle",
                            segments[0],
                            segments[1],
                            self.bank_of(segments[0])
                        ),
                    );
                }
            }
            SchemeKind::Perfect => unreachable!("handled above"),
        }
    }

    /// Taken-transfer legality: which correctly-predicted taken transfers a
    /// scheme may keep fetching across within one cycle.
    fn check_taken_legality(&mut self, cycle: u64, packet: &FetchPacket) {
        if self.env.scheme == SchemeKind::Perfect {
            return;
        }
        let bs = self.env.block_bytes;
        let mut crossings = 0u32;
        for (i, pair) in packet.insts.windows(2).enumerate() {
            let (fi, next) = (&pair[0], &pair[1]);
            if !fi.inst.is_taken_control() {
                continue;
            }
            // fi is a non-last taken transfer the unit kept fetching across.
            let cur_blk = fi.inst.addr.block_base(bs);
            let next_blk = next.inst.addr.block_base(bs);
            match self.env.scheme {
                SchemeKind::Sequential | SchemeKind::InterleavedSequential => {
                    self.report(
                        RULE_TAKEN_BREAK,
                        cycle,
                        format!(
                            "{} scheme delivered past the taken transfer at {} (position {i})",
                            self.env.scheme.name(),
                            fi.inst.addr
                        ),
                    );
                }
                SchemeKind::BankedSequential => {
                    if next_blk == cur_blk {
                        self.report(
                            RULE_TAKEN_BREAK,
                            cycle,
                            format!(
                                "banked scheme cannot align the intra-block target of {}",
                                fi.inst.addr
                            ),
                        );
                    } else {
                        crossings += 1;
                    }
                }
                SchemeKind::CollapsingBuffer => {
                    if next_blk == cur_blk {
                        if next.inst.addr <= fi.inst.addr {
                            self.report(
                                RULE_COLLAPSE,
                                cycle,
                                format!(
                                    "collapsed a non-forward intra-block target: {} -> {}",
                                    fi.inst.addr, next.inst.addr
                                ),
                            );
                        }
                    } else {
                        crossings += 1;
                    }
                }
                SchemeKind::Perfect => unreachable!("handled above"),
            }
        }
        if crossings > 1 {
            self.report(
                RULE_TAKEN_BREAK,
                cycle,
                format!("{crossings} inter-block taken transfers crossed in one cycle (limit 1)"),
            );
        }
    }
}

/// Checks the paper's cross-scheme dominance ordering over measured
/// effective issue rates for one workload.
///
/// `eirs` maps each scheme to its measured EIR; missing schemes are skipped.
/// A lower scheme beating a strictly more capable one by more than
/// `tolerance` (absolute EIR) is an error — the alignment hardware can only
/// remove constraints, never add them.
#[must_use]
pub fn check_scheme_dominance(
    label: &str,
    eirs: &[(SchemeKind, f64)],
    tolerance: f64,
) -> Vec<Diagnostic> {
    // (more capable, less capable): the left must not lose by > tolerance.
    const ORDER: &[(SchemeKind, SchemeKind)] = &[
        (SchemeKind::Perfect, SchemeKind::CollapsingBuffer),
        (SchemeKind::CollapsingBuffer, SchemeKind::BankedSequential),
        (
            SchemeKind::CollapsingBuffer,
            SchemeKind::InterleavedSequential,
        ),
        (SchemeKind::BankedSequential, SchemeKind::Sequential),
        (SchemeKind::InterleavedSequential, SchemeKind::Sequential),
    ];
    let eir_of = |k: SchemeKind| eirs.iter().find(|(s, _)| *s == k).map(|&(_, e)| e);
    let mut diags = Vec::new();
    for &(hi, lo) in ORDER {
        let (Some(e_hi), Some(e_lo)) = (eir_of(hi), eir_of(lo)) else {
            continue;
        };
        if e_lo > e_hi + tolerance {
            diags.push(Diagnostic {
                rule_id: RULE_DOMINANCE,
                severity: Severity::Error,
                location: Location::Program,
                message: format!(
                    "{label}: {} EIR {e_lo:.3} exceeds {} EIR {e_hi:.3} (+{tolerance:.2} tolerance)",
                    lo.name(),
                    hi.name()
                ),
            });
        }
    }
    diags
}

/// Floating-point slack for [`check_static_bound`]: the bound and the
/// measurement are both short ratios of small integers, so anything beyond
/// rounding error is a real violation.
pub const STATIC_BOUND_TOLERANCE: f64 = 1e-9;

/// Checks measured EIRs against the static fetch-geometry upper bound
/// ([`RULE_STATIC_BOUND`]).
///
/// Each cell is `(scheme, measured EIR, static bound)` — the bound comes
/// from [`crate::geometry::analyze_geometry`] over the same program,
/// layout, and machine model the measurement ran on. The bound is sound for
/// *any* dynamic trace of that layout (see DESIGN.md §10), so a violation
/// is always a bug: either the simulator delivered a packet its scheme
/// cannot form, or the geometry model mis-describes the scheme.
#[must_use]
pub fn check_static_bound(
    label: &str,
    cells: &[(SchemeKind, f64, f64)],
    tolerance: f64,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for &(scheme, measured, bound) in cells {
        if measured > bound + tolerance {
            diags.push(Diagnostic {
                rule_id: RULE_STATIC_BOUND,
                severity: Severity::Error,
                location: Location::Program,
                message: format!(
                    "{label}: {} measured EIR {measured:.3} exceeds its static \
                     fetch-geometry bound {bound:.3}",
                    scheme.name()
                ),
            });
        }
    }
    diags
}

/// The registry entry documenting the sanitizer's rule family.
///
/// The sanitizer is event-driven — it audits a *running simulation*, not a
/// static artifact — so this pass applies to no [`Target`](crate::Target)
/// and never runs;
/// registering it gives the rules a catalog entry (`fetchmech-lint --list`)
/// and keeps their ids inside the registry's uniqueness check.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SanitizerCatalogPass;

/// Rule-id slice for [`SanitizerCatalogPass::rules`] (the trait wants a
/// `&'static [&'static str]`, [`RULES`] carries summaries too).
static RULE_IDS: &[&str] = &[
    RULE_PACKET_WIDTH,
    RULE_EXACTLY_ONCE,
    RULE_TOTALS,
    RULE_PACKET_ORDER,
    RULE_LINE_PAIR,
    RULE_SEQ_BOUNDARY,
    RULE_BANK_CONFLICT,
    RULE_TAKEN_BREAK,
    RULE_COLLAPSE,
    RULE_MISPREDICT_TAIL,
    RULE_REDIRECT_STALL,
    RULE_SPEC_DEPTH,
    RULE_PREDICTOR,
    RULE_CORE_STATE,
    RULE_DOMINANCE,
    RULE_STATIC_BOUND,
];

impl crate::registry::Pass for SanitizerCatalogPass {
    fn name(&self) -> &'static str {
        "sanitize"
    }

    fn description(&self) -> &'static str {
        "cycle-level microarchitectural invariants, driven by the simulator (see `fetchmech-lint sanitize`)"
    }

    fn rules(&self) -> &'static [&'static str] {
        RULE_IDS
    }

    fn applies(&self, _target: &crate::registry::Target<'_>) -> bool {
        false
    }

    fn run(&self, _target: &crate::registry::Target<'_>, _sink: &mut crate::diag::DiagnosticSink) {}
}

/// Runs the sanitizer against built-in corrupted event streams and returns
/// the findings — a self-check that the engine still catches what it claims
/// to catch (`fetchmech-lint sanitize --self-test`).
///
/// Each stream injects one microarchitectural bug; a healthy engine reports
/// at least one error per stream, under the expected rule id.
#[must_use]
pub fn self_test() -> Vec<Diagnostic> {
    use fetchmech_isa::{DynCtrl, DynInst};

    let env = |scheme: SchemeKind| FetchEnv {
        scheme,
        issue_rate: 4,
        block_bytes: 16,
        banks: 2,
        spec_depth: 4,
        fetch_penalty: 2,
        track_issue: false,
    };
    let alu = |addr: u64| DynInst::simple(Addr::new(addr), OpClass::IntAlu, None, [None, None]);
    let jmp = |addr: u64, target: u64| DynInst {
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
    };
    let packet = |insts: &[DynInst]| FetchPacket {
        insts: insts
            .iter()
            .map(|&inst| FetchedInst {
                inst,
                mispredicted: false,
            })
            .collect(),
    };
    let mut diags = Vec::new();

    // Stream 1: sequential fetch crossing a block boundary (no control
    // transfers, so zero BTB deltas are the consistent baseline).
    let mut san = CycleSanitizer::new(env(SchemeKind::Sequential));
    san.observe_packet(
        0,
        0,
        &packet(&[alu(0x1008), alu(0x100c), alu(0x1010)]),
        &BtbStats::default(),
    );
    san.finish(1, 3);
    diags.extend(san.into_diagnostics());

    // Stream 2: banked scheme crossing into a same-bank block.
    let mut san = CycleSanitizer::new(env(SchemeKind::BankedSequential));
    let btb = BtbStats {
        lookups: 1,
        hits: 1,
        updates: 1,
        allocations: 0,
        evictions: 0,
    };
    san.observe_packet(0, 0, &packet(&[jmp(0x1000, 0x2000), alu(0x2000)]), &btb);
    san.finish(1, 2);
    diags.extend(san.into_diagnostics());

    // Stream 3: over-wide packet with a BTB that was never consulted for
    // its control transfer.
    let mut san = CycleSanitizer::new(env(SchemeKind::Perfect));
    san.observe_packet(
        0,
        0,
        &packet(&[
            alu(0x1000),
            alu(0x1004),
            alu(0x1008),
            jmp(0x100c, 0x1000),
            alu(0x1000),
        ]),
        &BtbStats::default(),
    );
    san.finish(1, 5);
    diags.extend(san.into_diagnostics());

    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_catches_each_injected_bug() {
        let diags = self_test();
        for rule in [
            RULE_SEQ_BOUNDARY,
            RULE_BANK_CONFLICT,
            RULE_PACKET_WIDTH,
            RULE_PREDICTOR,
        ] {
            assert!(
                diags.iter().any(|d| d.rule_id == rule),
                "self-test stream failed to trigger {rule}: {diags:?}"
            );
        }
        assert!(crate::diag::has_errors(&diags));
    }

    #[test]
    fn dominance_flags_inverted_ordering_only() {
        let ok = check_scheme_dominance(
            "compress",
            &[
                (SchemeKind::Perfect, 3.1),
                (SchemeKind::CollapsingBuffer, 2.8),
                (SchemeKind::BankedSequential, 2.5),
                (SchemeKind::InterleavedSequential, 2.52), // within tolerance of nothing it must beat
                (SchemeKind::Sequential, 1.9),
            ],
            DOMINANCE_TOLERANCE,
        );
        assert!(ok.is_empty(), "{ok:?}");

        let bad = check_scheme_dominance(
            "compress",
            &[
                (SchemeKind::CollapsingBuffer, 2.0),
                (SchemeKind::Sequential, 2.6),
                (SchemeKind::BankedSequential, 2.4),
            ],
            DOMINANCE_TOLERANCE,
        );
        assert!(bad.iter().any(|d| d.rule_id == RULE_DOMINANCE), "{bad:?}");
    }

    #[test]
    fn disabled_rule_stays_silent() {
        let mut cfg = SanitizeConfig::new();
        cfg.disable(RULE_PACKET_WIDTH);
        let env = FetchEnv {
            scheme: SchemeKind::Perfect,
            issue_rate: 1,
            block_bytes: 16,
            banks: 2,
            spec_depth: 8,
            fetch_penalty: 2,
            track_issue: false,
        };
        let mut san = CycleSanitizer::with_config(env, cfg);
        let wide = FetchPacket {
            insts: (0..3)
                .map(|i| FetchedInst {
                    inst: fetchmech_isa::DynInst::simple(
                        Addr::from_word_index(i),
                        OpClass::IntAlu,
                        None,
                        [None, None],
                    ),
                    mispredicted: false,
                })
                .collect(),
        };
        san.observe_packet(0, 0, &wide, &BtbStats::default());
        assert!(
            !san.diagnostics()
                .iter()
                .any(|d| d.rule_id == RULE_PACKET_WIDTH),
            "{:?}",
            san.diagnostics()
        );
    }
}
