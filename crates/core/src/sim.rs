//! The full-system simulator: fetch mechanism + out-of-order core.
//!
//! [`simulate`] wires a fetch unit to an out-of-order core and runs a
//! dynamic trace to completion, producing the paper's two metrics: **IPC**
//! (useful instructions retired per cycle) and **EIR** (instructions
//! supplied to the decoders per cycle). Padding nops are excluded from the
//! IPC numerator — they retire, but they are not work.
//!
//! There is one shipped loop. [`simulate`] and [`measure_eir`] take any
//! `Into<BlockCursor>` — an `Arc<BlockStream>` from the
//! [`Lab`](crate::experiments::Lab) stream cache, or a per-instruction
//! trace (`Vec<DynInst>`, `&Arc<[DynInst]>`), which is run-length encoded
//! through [`BlockStream::from_insts`](fetchmech_isa::BlockStream::from_insts)
//! first — and run it on [`BlockFetchUnit`] + [`StreamCore`]. The fetch
//! unit walks run-length fetch-block segments and dispatch reads them
//! without materializing packets. The core schedules each instruction once,
//! when it dispatches, so the loop knows when a mispredicted transfer
//! resolves and jumps every stretch of cycles in which fetch is idle.
//!
//! The per-instruction simulator — [`AlignedFetchUnit`] + [`OooCore`], one
//! trace element per instruction — is the reference the fast loop is
//! checked against. It is reached only by name: [`simulate_reference`],
//! [`measure_eir_reference`], [`build_fetch_unit`], and the
//! [`sanitize`](crate::sanitize) `*_checked` functions.
//!
//! The two produce bit-identical [`SimResult`]s. That is not an aspiration
//! but an enforced invariant: whenever the cycle sanitizer is enabled (debug
//! builds and `--features sanitize`), every [`simulate`]/[`measure_eir`]
//! call re-runs through the sanitized reference and asserts whole-result
//! equality; in release builds the differential tests compare the two by
//! name.

use std::collections::VecDeque;

use fetchmech_analysis::CycleSanitizer;
use fetchmech_bpred::BtbStats;
use fetchmech_cache::CacheStats;
use fetchmech_isa::OpClass;
use fetchmech_pipeline::{
    BlockCursor, FetchedInst, MachineModel, OooCore, StreamCore, TraceCursor,
};

use crate::scheme::SchemeKind;
use crate::unit::{AlignedFetchUnit, BlockFetchUnit, BlockPacket, FetchOutcome, FetchStats};

/// Result of one simulation run.
///
/// `PartialEq` compares every field, which is how the parallel-runner tests
/// assert bit-identical serial/parallel execution and how the differential
/// oracle asserts block-stream/per-instruction equivalence.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Scheme simulated.
    pub scheme: SchemeKind,
    /// Machine model name.
    pub machine: String,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions retired (including nops).
    pub retired: u64,
    /// Non-nop instructions retired.
    pub retired_useful: u64,
    /// Instructions delivered to the decoders (including nops).
    pub delivered: u64,
    /// Fetch-unit statistics.
    pub fetch: FetchStats,
    /// Instruction-cache statistics.
    pub icache: CacheStats,
    /// BTB statistics.
    pub btb: BtbStats,
}

impl SimResult {
    /// Useful instructions retired per cycle — the paper's chief metric.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired_useful as f64 / self.cycles as f64
        }
    }

    /// Effective issue rate: instructions supplied to the decoders per cycle.
    #[must_use]
    pub fn eir(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.delivered as f64 / self.cycles as f64
        }
    }
}

/// Builds the per-instruction reference fetch unit for `machine` running
/// `scheme` over `trace`.
///
/// The trace is *borrowed, not moved*: any `Into<TraceCursor>` works — an
/// owned `Vec<DynInst>`, a `&Arc<[DynInst]>` straight out of the
/// [`Lab`](crate::experiments::Lab) trace cache (a refcount bump, no copy),
/// or an existing cursor.
#[must_use]
pub fn build_fetch_unit(
    machine: &MachineModel,
    scheme: SchemeKind,
    trace: impl Into<TraceCursor>,
) -> AlignedFetchUnit {
    AlignedFetchUnit::new(machine, scheme, trace.into())
}

/// Runs `source` through `machine` with the given fetch `scheme` until every
/// instruction retires. Returns the aggregate [`SimResult`].
///
/// A per-instruction trace is run-length encoded first; the simulation
/// itself always takes the block-stream loop. When the sanitizer is enabled
/// and the cursor starts at the beginning of the stream, the materialized
/// trace is re-run through the sanitized [`simulate_reference`] path and the
/// two results are asserted identical.
///
/// # Panics
///
/// Panics if the simulation exceeds a safety bound of 64 cycles per trace
/// instruction plus slack (which would indicate a deadlock bug, not a slow
/// workload), or if the enabled differential check finds a divergence.
#[must_use]
pub fn simulate(
    machine: &MachineModel,
    scheme: SchemeKind,
    source: impl Into<BlockCursor>,
) -> SimResult {
    let cursor = source.into();
    let oracle_input = (crate::sanitize::ENABLED && cursor.pos() == 0).then(|| cursor.shared());
    let fast = simulate_blocks_fast(machine, scheme, cursor);
    if let Some(stream) = oracle_input {
        let (oracle, diags) =
            crate::sanitize::simulate_checked(machine, scheme, stream.materialize());
        crate::sanitize::assert_clean(&format!("simulate({scheme}, {})", machine.name), &diags);
        assert_eq!(
            fast, oracle,
            "block-stream fast path diverged from the per-instruction reference \
             ({scheme}, {})",
            machine.name
        );
    }
    fast
}

/// Runs `trace` through the per-instruction reference simulator
/// ([`AlignedFetchUnit`] + [`OooCore`]) — the oracle that [`simulate`] is
/// checked against. Differential tests call it by name.
///
/// When the sanitizer is enabled the run is sanitized and panics on
/// findings.
///
/// # Panics
///
/// As [`simulate`].
#[must_use]
pub fn simulate_reference(
    machine: &MachineModel,
    scheme: SchemeKind,
    trace: impl Into<TraceCursor>,
) -> SimResult {
    let cursor = trace.into();
    if crate::sanitize::ENABLED {
        let (result, diags) = crate::sanitize::simulate_checked(machine, scheme, cursor);
        crate::sanitize::assert_clean(
            &format!("simulate_reference({scheme}, {})", machine.name),
            &diags,
        );
        return result;
    }
    simulate_observed(machine, scheme, cursor, None)
}

/// [`simulate_reference`] with an optional sanitizer observing every
/// pipeline event.
///
/// The `san` parameter is how the sanitizer stays zero-cost when off: the
/// observation sites are `if let Some(..)` on this option, and the two
/// reference entry points pass a compile-time-known `None` unless
/// [`crate::sanitize::ENABLED`] holds.
pub(crate) fn simulate_observed(
    machine: &MachineModel,
    scheme: SchemeKind,
    trace: TraceCursor,
    mut san: Option<&mut CycleSanitizer>,
) -> SimResult {
    let mut fetch = build_fetch_unit(machine, scheme, trace);
    let mut core = OooCore::new(machine.ooo_config());
    let mut queue: VecDeque<FetchedInst> = VecDeque::new();
    // Sequence number of the in-flight mispredicted control transfer whose
    // resolution fetch is waiting on.
    let mut watched: Option<u64> = None;
    // A delivered-but-not-yet-dispatched mispredicted instruction.
    let mut queued_mispredict = false;
    let mut queued_conds = 0u32;
    let mut nops_fetched = 0u64;

    let mut cycle: u64 = 0;
    loop {
        // 1. Complete + retire; notify fetch of the watched resolution.
        let resolved = core.begin_cycle(cycle);
        for r in &resolved {
            if Some(r.seq) == watched {
                debug_assert!(r.mispredicted);
                fetch.on_mispredict_resolved(cycle);
                if let Some(s) = san.as_deref_mut() {
                    s.observe_resolved(cycle);
                }
                watched = None;
            }
        }

        // 2. Fire ready instructions.
        core.fire(cycle);

        // 3. Dispatch from the decode queue. Nops are dropped here: they
        // consume fetch and dispatch bandwidth (the §4.1 padding cost) but
        // never occupy a window or ROB slot — the behaviour the paper's
        // pad-all results imply.
        let mut dispatched = 0;
        while dispatched < machine.issue_rate && !queue.is_empty() {
            if queue.front().expect("nonempty queue").inst.op == OpClass::Nop {
                let fi = queue.pop_front().expect("nonempty queue");
                if let Some(s) = san.as_deref_mut() {
                    s.observe_squash(cycle, &fi);
                }
                dispatched += 1;
                continue;
            }
            if !core.can_accept() {
                break;
            }
            let fi = queue.pop_front().expect("nonempty queue");
            if fi.inst.op == OpClass::CondBranch {
                queued_conds -= 1;
            }
            let seq = core.dispatch(&fi);
            if let Some(s) = san.as_deref_mut() {
                s.observe_issue(cycle, &fi);
            }
            if fi.mispredicted {
                queued_mispredict = false;
                watched = Some(seq);
            }
            dispatched += 1;
        }
        if let Some(s) = san.as_deref_mut() {
            s.observe_core_state(cycle, core.audit_invariants());
        }

        // 4. Fetch into the (single-packet) decode queue.
        if queue.is_empty() && !queued_mispredict {
            let unresolved = core.unresolved_cond() + queued_conds;
            let packet = fetch.cycle(cycle, unresolved);
            if let Some(s) = san.as_deref_mut() {
                s.observe_packet(cycle, unresolved, &packet, &fetch.btb().stats());
            }
            queued_mispredict = packet.ends_mispredicted();
            for fi in packet.insts {
                if fi.inst.op == OpClass::CondBranch {
                    queued_conds += 1;
                }
                if fi.inst.op == OpClass::Nop {
                    nops_fetched += 1;
                }
                queue.push_back(fi);
            }
        }

        cycle += 1;
        if fetch.done() && queue.is_empty() && core.drained() {
            break;
        }
        assert!(
            cycle <= 1_000_000 + 64 * fetch.delivered().max(100_000),
            "simulation runaway: {} cycles for {} delivered instructions",
            cycle,
            fetch.delivered()
        );
    }

    if let Some(s) = san {
        s.finish(cycle, fetch.delivered());
    }

    // Nops never dispatch, so everything the core retired is useful work.
    let retired = core.stats().retired;
    SimResult {
        scheme,
        machine: machine.name.clone(),
        cycles: cycle,
        retired: retired + nops_fetched,
        retired_useful: retired,
        delivered: fetch.delivered(),
        fetch: *fetch.stats(),
        icache: fetch.icache().stats(),
        btb: fetch.btb().stats(),
    }
}

/// The block-stream simulation loop. Produces what [`simulate_observed`]
/// produces, with three differences that cannot change the result:
///
/// * packets stay in run-length form ([`BlockPacket`]) and dispatch reads
///   instructions straight out of the shared stream's templates;
/// * the core ([`StreamCore`]) schedules each instruction when it
///   dispatches, so it has no per-cycle complete, retire or fire phase, and
///   the completion cycle of a mispredicted transfer is known at dispatch;
/// * cycles in which fetch is idle are jumped, with the per-cycle statistics
///   the reference records on them (redirect stalls) patched in exactly.
///
/// Fetch is idle while it waits for the watched mispredict (the loop jumps
/// to its completion), while it stalls on a miss or a redirect (the loop
/// jumps to the stall's end), and once the stream is exhausted (the run ends
/// when the youngest instruction retires). Speculation-blocked cycles are
/// never jumped: each one performs real I-cache accesses in the fetch unit.
fn simulate_blocks_fast(
    machine: &MachineModel,
    scheme: SchemeKind,
    cursor: BlockCursor,
) -> SimResult {
    let stream = cursor.shared();
    let mut fetch = BlockFetchUnit::new(machine, scheme, cursor);
    let mut core = StreamCore::new(machine.ooo_config());
    let issue_rate = machine.issue_rate;

    // The current packet, in run-length form, and the dispatch position
    // within it: `run_idx`/`run_off` index into `pkt.runs`, `pkt_left`
    // counts undispatched instructions.
    let mut pkt = BlockPacket::default();
    let mut run_idx = 0usize;
    let mut run_off = 0u32;
    let mut pkt_left = 0u32;
    // Completion cycle of the in-flight mispredicted control transfer whose
    // resolution fetch is waiting on.
    let mut watched: Option<u64> = None;
    // A delivered-but-not-yet-dispatched mispredicted instruction.
    let mut queued_mispredict = false;
    let mut nops_fetched = 0u64;

    let mut cycle: u64 = 0;
    loop {
        core.advance_to(cycle);

        // 1. The watched transfer resolves; fetch may redirect.
        if watched == Some(cycle) {
            fetch.on_mispredict_resolved(cycle);
            watched = None;
        }

        // 2. Dispatch from the current packet. Nops are dropped here, as in
        // the reference: they consume dispatch bandwidth but never occupy a
        // window or ROB slot.
        if pkt_left > 0 {
            let mut dispatched = 0u32;
            // Resolve the current run to a template slice once per run, not
            // once per instruction.
            let (tid, base, len) = pkt.runs[run_idx];
            let mut insts = &stream.template(tid).insts()[base as usize..(base + len) as usize];
            while dispatched < issue_rate && pkt_left > 0 {
                let inst = &insts[run_off as usize];
                if inst.op != OpClass::Nop {
                    if !core.can_accept() {
                        break;
                    }
                    let done = core.dispatch(inst.op, inst.dest, inst.srcs);
                    if pkt.mispredicted && pkt_left == 1 {
                        queued_mispredict = false;
                        watched = Some(done);
                    }
                }
                run_off += 1;
                pkt_left -= 1;
                dispatched += 1;
                if run_off as usize == insts.len() {
                    run_idx += 1;
                    run_off = 0;
                    if pkt_left > 0 {
                        let (tid, base, len) = pkt.runs[run_idx];
                        insts = &stream.template(tid).insts()[base as usize..(base + len) as usize];
                    }
                }
            }
        }

        // 3. Fetch the next packet once the current one has fully dispatched.
        let mut idle = FetchOutcome::Delivered;
        if pkt_left == 0 && !queued_mispredict {
            // The packet queue is empty, so its conditional-branch count
            // contributes nothing: unresolved = in-flight conds only.
            idle = fetch.cycle_into(cycle, core.unresolved_cond(), &mut pkt);
            if idle == FetchOutcome::Delivered {
                pkt_left = pkt.len;
                run_idx = 0;
                run_off = 0;
                nops_fetched += u64::from(pkt.nops);
                queued_mispredict = pkt.mispredicted;
            }
        }

        cycle += 1;
        if fetch.done() && pkt_left == 0 && watched.is_none() {
            // Only the core is left: fetch records nothing more, and the
            // run ends in the cycle the youngest instruction retires.
            cycle = cycle.max(core.last_retire() + 1);
            break;
        }
        assert!(
            cycle <= 1_000_000 + 64 * fetch.delivered().max(100_000),
            "simulation runaway: {} cycles for {} delivered instructions",
            cycle,
            fetch.delivered()
        );

        // 4. Jump the fetch-idle stretch.
        match idle {
            FetchOutcome::AwaitResolve => {
                // Nothing happens until the watched transfer resolves, and
                // the reference records one redirect stall per cycle.
                let t = watched.expect("fetch awaits a dispatched mispredict");
                debug_assert!(t > cycle, "a transfer resolves after its dispatch cycle");
                fetch.add_redirect_stalls(t - cycle);
                cycle = t;
            }
            FetchOutcome::Stalled { until } => {
                // Miss or post-redirect penalty: fetch returns nothing (and
                // records nothing) before `until`, and no resolution is
                // pending.
                debug_assert!(watched.is_none());
                cycle = cycle.max(until);
            }
            // Delivered (or not consulted): dispatch goes on next cycle.
            // SpecBlocked: each blocked cycle performs real I-cache
            // accesses (and possible bank conflicts) in the fetch unit.
            // Done: the run ended above.
            FetchOutcome::Delivered | FetchOutcome::SpecBlocked | FetchOutcome::Done => {}
        }
    }

    core.advance_to(cycle - 1);
    debug_assert!(
        core.drained(),
        "the run ends once every instruction retired"
    );
    // Nops never dispatch, so everything the core retired is useful work.
    let retired = core.retired();
    SimResult {
        scheme,
        machine: machine.name.clone(),
        cycles: cycle,
        retired: retired + nops_fetched,
        retired_useful: retired,
        delivered: fetch.delivered(),
        fetch: *fetch.stats(),
        icache: fetch.icache().stats(),
        btb: fetch.btb().stats(),
    }
}

/// Result of a fetch-only EIR measurement (see [`measure_eir`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EirResult {
    /// Scheme measured.
    pub scheme: SchemeKind,
    /// Cycles consumed by the fetch unit alone.
    pub cycles: u64,
    /// Instructions delivered.
    pub delivered: u64,
    /// Fetch-unit statistics.
    pub fetch: FetchStats,
}

impl EirResult {
    /// Effective issue rate: instructions supplied per cycle.
    #[must_use]
    pub fn eir(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.delivered as f64 / self.cycles as f64
        }
    }
}

/// Measures the *effective issue rate* of a fetch mechanism in isolation —
/// the Figure 10 metric.
///
/// The back end is idealized: it never backpressures, never hits the
/// speculation-depth limit, and resolves a mispredicted control transfer one
/// cycle after delivery (the minimum dispatch-plus-execute time), so the
/// misprediction cost is `1 + fetch_penalty` cycles. What remains is the
/// fetch unit's own ability to align instructions, which is exactly what
/// `EIR / EIR(perfect)` is meant to isolate.
///
/// Takes the same inputs as [`simulate`] and runs the block-stream EIR loop,
/// with the same sanitizer-gated differential check against
/// [`measure_eir_reference`].
#[must_use]
pub fn measure_eir(
    machine: &MachineModel,
    scheme: SchemeKind,
    source: impl Into<BlockCursor>,
) -> EirResult {
    let cursor = source.into();
    let oracle_input = (crate::sanitize::ENABLED && cursor.pos() == 0).then(|| cursor.shared());
    let fast = measure_eir_blocks_fast(machine, scheme, cursor);
    if let Some(stream) = oracle_input {
        let (oracle, diags) =
            crate::sanitize::measure_eir_checked(machine, scheme, stream.materialize());
        crate::sanitize::assert_clean(&format!("measure_eir({scheme}, {})", machine.name), &diags);
        assert_eq!(
            fast, oracle,
            "block-stream EIR fast path diverged from the per-instruction \
             reference ({scheme}, {})",
            machine.name
        );
    }
    fast
}

/// The per-instruction reference for [`measure_eir`], reached by name like
/// [`simulate_reference`] and sanitized the same way when the sanitizer is
/// enabled.
#[must_use]
pub fn measure_eir_reference(
    machine: &MachineModel,
    scheme: SchemeKind,
    trace: impl Into<TraceCursor>,
) -> EirResult {
    let cursor = trace.into();
    if crate::sanitize::ENABLED {
        let (result, diags) = crate::sanitize::measure_eir_checked(machine, scheme, cursor);
        crate::sanitize::assert_clean(
            &format!("measure_eir_reference({scheme}, {})", machine.name),
            &diags,
        );
        return result;
    }
    measure_eir_observed(machine, scheme, cursor, None)
}

/// [`measure_eir_reference`] with an optional sanitizer observing every
/// fetch cycle (see [`simulate_observed`] for the gating pattern).
pub(crate) fn measure_eir_observed(
    machine: &MachineModel,
    scheme: SchemeKind,
    trace: TraceCursor,
    mut san: Option<&mut CycleSanitizer>,
) -> EirResult {
    let mut fetch = build_fetch_unit(machine, scheme, trace);
    let mut cycle: u64 = 0;
    loop {
        let packet = fetch.cycle(cycle, 0);
        if let Some(s) = san.as_deref_mut() {
            s.observe_packet(cycle, 0, &packet, &fetch.btb().stats());
        }
        if packet.ends_mispredicted() {
            fetch.on_mispredict_resolved(cycle + 1);
            if let Some(s) = san.as_deref_mut() {
                s.observe_resolved(cycle + 1);
            }
        }
        cycle += 1;
        if fetch.done() {
            break;
        }
        assert!(
            cycle <= 1_000_000 + 64 * fetch.delivered().max(100_000),
            "EIR measurement runaway"
        );
    }
    if let Some(s) = san {
        s.finish(cycle, fetch.delivered());
    }
    EirResult {
        scheme,
        cycles: cycle,
        delivered: fetch.delivered(),
        fetch: *fetch.stats(),
    }
}

/// The block-stream EIR loop. With the idealized back end, a mispredict
/// resolves immediately and the only idle periods are [`FetchOutcome::
/// Stalled`] stretches (miss/redirect penalties), which record no per-cycle
/// statistics in the oracle and are therefore skipped wholesale.
fn measure_eir_blocks_fast(
    machine: &MachineModel,
    scheme: SchemeKind,
    cursor: BlockCursor,
) -> EirResult {
    let mut fetch = BlockFetchUnit::new(machine, scheme, cursor);
    let mut pkt = BlockPacket::default();
    let mut cycle: u64 = 0;
    loop {
        let outcome = fetch.cycle_into(cycle, 0, &mut pkt);
        if outcome == FetchOutcome::Delivered && pkt.mispredicted {
            fetch.on_mispredict_resolved(cycle + 1);
        }
        cycle += 1;
        if fetch.done() {
            break;
        }
        if let FetchOutcome::Stalled { until } = outcome {
            // Every cycle before `until` is a statless empty fetch in the
            // oracle; jump straight to the resume point.
            if until > cycle {
                cycle = until;
            }
        }
        assert!(
            cycle <= 1_000_000 + 64 * fetch.delivered().max(100_000),
            "EIR measurement runaway"
        );
    }
    EirResult {
        scheme,
        cycles: cycle,
        delivered: fetch.delivered(),
        fetch: *fetch.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use fetchmech_isa::{BlockStream, DynInst, Layout, LayoutOptions};
    use fetchmech_workloads::{suite, InputId};

    fn trace_of(machine: &MachineModel, n: u64) -> Vec<DynInst> {
        let w = suite::benchmark("compress").expect("known benchmark");
        let layout =
            Layout::natural(&w.program, LayoutOptions::new(machine.block_bytes)).expect("layout");
        w.block_stream(&layout, InputId::TEST, n).materialize()
    }

    fn run(scheme: SchemeKind, machine: &MachineModel, n: u64) -> SimResult {
        simulate(machine, scheme, trace_of(machine, n))
    }

    #[test]
    fn all_schemes_complete_and_order_sanely() {
        let machine = MachineModel::p14();
        let mut ipcs = Vec::new();
        for scheme in SchemeKind::ALL {
            let r = run(scheme, &machine, 20_000);
            assert_eq!(r.retired, 20_000, "{scheme}: all instructions must retire");
            assert!(r.ipc() > 0.0 && r.ipc() <= 4.0, "{scheme}: ipc {}", r.ipc());
            assert!(r.eir() >= r.ipc() - 1e-9, "{scheme}: EIR must bound IPC");
            ipcs.push((scheme, r.ipc()));
        }
        let ipc_of = |k: SchemeKind| ipcs.iter().find(|(s, _)| *s == k).expect("ran").1;
        // Perfect dominates; the collapsing buffer dominates sequential.
        assert!(ipc_of(SchemeKind::Perfect) >= ipc_of(SchemeKind::CollapsingBuffer) - 0.05);
        assert!(ipc_of(SchemeKind::CollapsingBuffer) >= ipc_of(SchemeKind::Sequential) - 0.05);
    }

    #[test]
    fn simulation_is_deterministic() {
        let machine = MachineModel::p14();
        let a = run(SchemeKind::CollapsingBuffer, &machine, 10_000);
        let b = run(SchemeKind::CollapsingBuffer, &machine, 10_000);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.delivered, b.delivered);
    }

    #[test]
    fn eir_never_exceeds_issue_rate() {
        let machine = MachineModel::p18();
        let r = run(SchemeKind::Perfect, &machine, 20_000);
        assert!(
            r.eir() <= f64::from(machine.issue_rate) + 1e-9,
            "eir = {}",
            r.eir()
        );
    }

    /// The block-stream fast path must produce the same `SimResult` and
    /// `EirResult` as the per-instruction reference, field for field. (In
    /// debug builds `simulate` additionally self-checks against the
    /// sanitized reference, so this test exercises that machinery too.)
    #[test]
    fn block_stream_paths_match_per_instruction_paths() {
        for machine in [MachineModel::p14(), MachineModel::p112()] {
            let trace = trace_of(&machine, 4_000);
            let stream = Arc::new(BlockStream::from_insts(&trace));
            for scheme in SchemeKind::ALL {
                let a = simulate_reference(&machine, scheme, trace.clone());
                let b = simulate(&machine, scheme, Arc::clone(&stream));
                assert_eq!(a, b, "simulate mismatch: {scheme}, {}", machine.name);
                let ea = measure_eir_reference(&machine, scheme, trace.clone());
                let eb = measure_eir(&machine, scheme, Arc::clone(&stream));
                assert_eq!(ea, eb, "eir mismatch: {scheme}, {}", machine.name);
            }
        }
    }
}
