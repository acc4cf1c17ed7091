//! The static fetch-geometry analyzer: packet-break structure and a sound
//! per-scheme EIR upper bound, computed from a [`Program`] + [`Layout`] +
//! [`MachineModel`] alone — no simulation.
//!
//! The analyzer answers the question the compiler side of the paper keeps
//! asking: *how much issue bandwidth does this layout leave on the table,
//! before any dynamic effect?* Per block it reports cache-line straddles
//! and alignment-induced packet breaks; per scheme it reports the static
//! taken-branch break points and an **EIR upper bound** no run of the cycle
//! simulator may exceed.
//!
//! # Soundness of the bound
//!
//! EIR is delivered instructions over cycles, and every cycle delivers one
//! packet, so `EIR <= max packet size` over any finite trace. The bound is
//! the maximum, over every laid instruction address a packet could start
//! at, of the largest packet the scheme could form there under *best-case
//! dynamic state*: all cache accesses hit, all predictions are correct, no
//! unresolved branches are in flight, and — for the banked schemes — the
//! BTB-predicted successor block is whatever single different-bank block
//! most helps the packet. Conditional branches take the better of their two
//! directions; `ret` (statically unknown target) assumes the packet fills
//! to the issue width whenever the scheme could continue through it. Every
//! relaxation only grows packets, so the walk dominates any packet the
//! hardware model can form, and `measured EIR <= bound` holds for every
//! (workload, scheme, layout) cell. The cross-check lives in
//! [`check_static_bound`](crate::sanitize::check_static_bound)
//! (`sanitize.static_bound`).
//!
//! The walk mirrors the delivery rules in the simulator's fetch unit (and
//! DESIGN.md §10): bandwidth cap at the issue rate, speculation cap at
//! `spec_depth + 1` conditionals per packet, one-block regions for
//! sequential, forced next-sequential pairs for interleaved, one predicted
//! different-bank partner with at most one inter-block crossing for
//! banked/collapsing, forward intra-block collapsing for the collapsing
//! buffer, and no constraint for perfect.

use fetchmech_isa::{Addr, BlockId, Layout, OpClass, Program};
use fetchmech_pipeline::{MachineModel, SchemeKind};

/// Static geometry of one basic block's laid-out footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGeometry {
    /// The block.
    pub block: BlockId,
    /// Address of the block's first laid instruction.
    pub start: Addr,
    /// Laid instructions belonging to the block (body + materialized
    /// terminator + trailing alignment padding).
    pub insts: u32,
    /// Cache lines the block's footprint touches.
    pub lines: u32,
    /// Cache-line boundaries the footprint crosses (`lines - 1`).
    pub straddles: u32,
    /// Word offset of the block start within its cache line (0 = aligned).
    pub entry_offset: u32,
}

/// Static per-scheme fetch geometry of a whole layout.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeGeometry {
    /// The scheme.
    pub scheme: SchemeKind,
    /// Sound static EIR upper bound: the largest packet the scheme could
    /// form anywhere in the layout under best-case dynamic state.
    pub eir_bound: f64,
    /// Mean best-case packet size over all block entry points — the static
    /// analogue of the paper's fetchable-instructions metric, and the
    /// number layout optimization is actually moving.
    pub mean_entry_packet: f64,
    /// Static control-transfer sites whose taken execution must end a
    /// packet under this scheme even in the best case.
    pub taken_breaks: u64,
    /// Alignment-induced packet breaks: summed over blocks, the extra
    /// packets (beyond the bandwidth-only minimum) needed to stream the
    /// block solo, caused purely by cache-line geometry.
    pub align_breaks: u64,
}

/// The full static-geometry report for one (program, layout, machine).
#[derive(Debug, Clone, PartialEq)]
pub struct GeometryReport {
    /// Machine model name the geometry was computed against.
    pub machine: String,
    /// Per-block footprint geometry, indexed by block id.
    pub blocks: Vec<BlockGeometry>,
    /// Per-scheme geometry, in [`SchemeKind::ALL`] order.
    pub schemes: Vec<SchemeGeometry>,
}

impl GeometryReport {
    /// The scheme entry for `scheme`.
    #[must_use]
    pub fn scheme(&self, scheme: SchemeKind) -> &SchemeGeometry {
        self.schemes
            .iter()
            .find(|s| s.scheme == scheme)
            .expect("all schemes analyzed")
    }

    /// Total cache-line straddles across all blocks.
    #[must_use]
    pub fn total_straddles(&self) -> u64 {
        self.blocks.iter().map(|b| u64::from(b.straddles)).sum()
    }
}

/// Per-path walk state for the best-case packet search.
#[derive(Debug, Clone, Copy)]
struct Walk {
    len: u32,
    conds: u32,
    fetch_block: Addr,
    /// Committed second block, if any.
    second: Option<Addr>,
    /// Banked/collapsing only: the predicted successor has not been
    /// committed yet and may still be chosen freely.
    second_free: bool,
    in_second: bool,
    crossed: bool,
}

/// The analyzer: machine parameters plus the layout's instruction stream.
struct Analyzer<'a> {
    layout: &'a Layout,
    machine: &'a MachineModel,
    scheme: SchemeKind,
}

impl Analyzer<'_> {
    fn bs(&self) -> u64 {
        self.machine.block_bytes
    }

    fn bank_of(&self, block: Addr) -> u64 {
        block.block_index(self.bs()) % u64::from(self.scheme.banks().max(2))
    }

    /// Largest packet the scheme could deliver in one cycle starting at
    /// laid-instruction index `start`, under best-case dynamic state.
    fn best_packet(&self, start: usize) -> u32 {
        let first = self.layout.code()[start].addr;
        let fetch_block = first.block_base(self.bs());
        let second = match self.scheme {
            SchemeKind::Sequential | SchemeKind::Perfect => None,
            SchemeKind::InterleavedSequential => {
                Some(fetch_block.add_words(self.bs() / fetchmech_isa::WORD_BYTES))
            }
            // Deferred: committed at the walk's first departure from the
            // fetch block, to whatever different-bank block it departs to.
            SchemeKind::BankedSequential | SchemeKind::CollapsingBuffer => None,
        };
        self.walk(
            start,
            Walk {
                len: 0,
                conds: 0,
                fetch_block,
                second,
                second_free: self.scheme.predicts_second_block(),
                in_second: false,
                crossed: false,
            },
        )
    }

    /// Recursive best-case packet walk; depth is bounded by the issue rate.
    fn walk(&self, idx: usize, mut w: Walk) -> u32 {
        let code = self.layout.code();
        let Some(inst) = code.get(idx) else {
            // Off the end of the laid stream: no instruction exists here, so
            // no dynamic packet can continue (valid layouts end in control).
            return w.len;
        };
        if w.len >= self.machine.issue_rate {
            return w.len; // bandwidth
        }
        if w.conds > self.machine.spec_depth {
            return w.len; // speculation depth (best case: none in flight)
        }

        // Region admission.
        let blk = inst.addr.block_base(self.bs());
        if self.scheme != SchemeKind::Perfect {
            if blk == w.fetch_block && !w.in_second {
                // still in the fetch block
            } else if Some(blk) == w.second {
                w.in_second = true;
            } else if w.second_free && self.bank_of(blk) != self.bank_of(w.fetch_block) {
                // Commit the predicted successor to this block (fall-through
                // entry: the BTB predicted not-taken into the next line).
                w.second = Some(blk);
                w.second_free = false;
                w.in_second = true;
            } else {
                return w.len; // region end
            }
        }

        w.len += 1;
        let Some(ctrl) = inst.ctrl else {
            return self.walk(idx + 1, w);
        };
        if inst.op == OpClass::CondBranch {
            w.conds += 1;
            // Correct prediction lets either direction continue; the bound
            // takes the better one. (A mispredict ends the packet at len,
            // which both arms dominate.)
            let fall = self.walk(idx + 1, w);
            let taken = match ctrl.target {
                Some(t) => self.taken_continuation(inst.addr, t, w),
                None => w.len,
            };
            return fall.max(taken);
        }
        // Unconditional transfers (jump/call/halt have static targets; ret
        // does not) execute taken.
        match ctrl.target {
            Some(t) => self.taken_continuation(inst.addr, t, w),
            None => self.unknown_target_continuation(w),
        }
    }

    /// Continue the walk through a correctly-predicted taken transfer at
    /// `from` to static target `target`, or end the packet if the scheme
    /// cannot align it.
    fn taken_continuation(&self, from: Addr, target: Addr, mut w: Walk) -> u32 {
        let Some(tidx) = self.layout.index_of(target) else {
            return w.len;
        };
        if self.scheme == SchemeKind::Perfect {
            return self.walk(tidx, w);
        }
        if !self.scheme.crosses_taken() {
            return w.len; // sequential / interleaved break at-taken
        }
        let tblk = target.block_base(self.bs());
        let current = if w.in_second {
            w.second.expect("in_second implies a committed second")
        } else {
            w.fetch_block
        };
        if self.scheme.collapses_forward() && tblk == current && target > from {
            // Forward intra-block: the collapsing buffer squeezes the gap.
            return self.walk(tidx, w);
        }
        let crossable = !w.crossed
            && tblk != current
            && (w.second == Some(tblk)
                || (w.second_free && self.bank_of(tblk) != self.bank_of(w.fetch_block)));
        if crossable {
            w.second = Some(tblk);
            w.second_free = false;
            w.crossed = true;
            w.in_second = true;
            return self.walk(tidx, w);
        }
        w.len
    }

    /// Continue through a `ret` (statically unknown target): if the scheme
    /// could cross it in the best case, assume the packet fills to the
    /// issue width — a sound over-approximation of any real continuation.
    fn unknown_target_continuation(&self, w: Walk) -> u32 {
        let crossable = match self.scheme {
            SchemeKind::Perfect => true,
            SchemeKind::Sequential | SchemeKind::InterleavedSequential => false,
            SchemeKind::BankedSequential | SchemeKind::CollapsingBuffer => {
                // Best case: the dynamic target is exactly the predicted
                // different-bank partner, not yet crossed into.
                !w.crossed && (w.second_free || (!w.in_second && w.second.is_some()))
            }
        };
        if crossable {
            self.machine.issue_rate.max(w.len)
        } else {
            w.len
        }
    }

    /// Does a taken transfer at `from` (targeting `target`) break a packet
    /// even from the most favorable packet state (fresh region at `from`'s
    /// block, successor prediction free)?
    fn taken_breaks_at(&self, from: Addr, target: Option<Addr>) -> bool {
        if self.scheme == SchemeKind::Perfect {
            return false;
        }
        if !self.scheme.crosses_taken() {
            return true;
        }
        let Some(target) = target else {
            return false; // ret: best case the prediction crosses it
        };
        let fblk = from.block_base(self.bs());
        let tblk = target.block_base(self.bs());
        if tblk == fblk {
            // Intra-block: only a forward collapse can survive.
            return !(self.scheme.collapses_forward() && target > from);
        }
        self.bank_of(tblk) == self.bank_of(fblk)
    }

    /// Packets needed to stream `insts` straight-line instructions starting
    /// at `start` (no taken exits, all hits), minus the bandwidth-only
    /// minimum: the purely alignment-induced breaks.
    fn align_breaks_of(&self, start: Addr, insts: u64) -> u64 {
        if insts == 0 {
            return 0;
        }
        let w = u64::from(self.machine.insts_per_block());
        let mut remaining = insts;
        let mut offset = start.offset_words(self.bs());
        let mut packets = 0u64;
        while remaining > 0 {
            let take = u64::from(self.machine.straight_line_packet(self.scheme, offset));
            let take = take.min(remaining);
            remaining -= take;
            offset = (offset + take) % w;
            packets += 1;
        }
        let min_packets = insts.div_ceil(u64::from(self.machine.issue_rate));
        packets - min_packets
    }
}

/// Runs the static fetch-geometry analysis over one (program, layout,
/// machine) triple, covering every scheme in [`SchemeKind::ALL`].
#[must_use]
pub fn analyze_geometry(
    program: &Program,
    layout: &Layout,
    machine: &MachineModel,
) -> GeometryReport {
    let code = layout.code();
    let bs = machine.block_bytes;

    // Per-block footprints: count laid instructions per block (each block's
    // footprint is contiguous, starting at its block_addr).
    let mut insts_per_block = vec![0u32; program.num_blocks()];
    for inst in code {
        insts_per_block[inst.block.0 as usize] += 1;
    }
    let blocks: Vec<BlockGeometry> = (0..program.num_blocks())
        .map(|i| {
            let block = BlockId(i as u32);
            let start = layout.block_addr(block);
            let insts = insts_per_block[i];
            let lines = machine.lines_spanned(start, u64::from(insts)) as u32;
            BlockGeometry {
                block,
                start,
                insts,
                lines,
                straddles: lines.saturating_sub(1),
                entry_offset: start.offset_words(bs) as u32,
            }
        })
        .collect();

    let schemes = SchemeKind::ALL
        .into_iter()
        .map(|scheme| {
            let a = Analyzer {
                layout,
                machine,
                scheme,
            };
            let mut bound = 0u32;
            for idx in 0..code.len() {
                bound = bound.max(a.best_packet(idx));
                if bound >= machine.issue_rate {
                    break; // the walk is capped there; no need to keep looking
                }
            }
            let entry_sum: u64 = blocks
                .iter()
                .filter(|b| b.insts > 0)
                .map(|b| {
                    let idx = layout.index_of(b.start).expect("block start is laid");
                    u64::from(a.best_packet(idx))
                })
                .sum();
            let entries = blocks.iter().filter(|b| b.insts > 0).count().max(1);
            let taken_breaks = code
                .iter()
                .filter_map(|inst| inst.ctrl.map(|c| (inst.addr, c.target)))
                .filter(|&(from, target)| a.taken_breaks_at(from, target))
                .count() as u64;
            let align_breaks = blocks
                .iter()
                .map(|b| a.align_breaks_of(b.start, u64::from(b.insts)))
                .sum();
            SchemeGeometry {
                scheme,
                eir_bound: f64::from(bound),
                mean_entry_packet: entry_sum as f64 / entries as f64,
                taken_breaks,
                align_breaks,
            }
        })
        .collect();

    GeometryReport {
        machine: machine.name.clone(),
        blocks,
        schemes,
    }
}

/// Static predicted EIR under `scheme`: expected delivered instructions
/// per fetch cycle, from a profile-derived *restart* model of the layout.
///
/// The fetch stream is modeled as a sequence of straight-line *runs*: each
/// run begins where fetch redirects (a restart), streams layout-contiguous
/// instructions in scheme-sized packets ([`MachineModel::
/// straight_line_packet`]), and ends at the next redirect. `weights[b]` is
/// how often a run starts at block `b`'s entry (see the pass pipeline's
/// restart weighting) and `run_insts[b]` the expected laid-instruction
/// length of that run. The prediction is then
///
/// ```text
///              sum_b w_b * L_b
///   -------------------------------------------------------
///   sum_b w_b * (packets(entry_offset_b, L_b) + REDIRECT)
/// ```
///
/// — total instructions over total fetch cycles, where every run charges
/// its packet count *plus one redirect cycle* (`REDIRECT_CYCLES`): the
/// expected delivery gap while fetch steers to the run's start (BTB lookup,
/// amortized misprediction and miss costs). Unlike a mean of entry packets,
/// this credits transforms that make runs *longer and rarer* (branch
/// straightening, superblock formation) twice over: fewer restarts amortize
/// both the partial packet wasted at every run boundary and the redirect
/// charge itself. The banked schemes' across-taken crossing is ignored
/// (runs still end at every redirect), a consistent under-credit on both
/// sides of a delta; the perfect scheme has no geometry constraint and
/// predicts the issue rate outright.
#[must_use]
pub(crate) fn predicted_eir(
    program: &Program,
    layout: &Layout,
    machine: &MachineModel,
    scheme: SchemeKind,
    weights: &[f64],
    run_insts: &[f64],
) -> f64 {
    /// Expected extra fetch cycles charged per redirect (run start): the
    /// steering gap a taken transfer costs the delivery stream even when
    /// predicted, with misprediction and BTB-miss penalties amortized in.
    /// One cycle is deliberately coarse — the predictor is a *delta* model,
    /// and any constant redirect cost cancels between two layouts with the
    /// same restart flow while penalizing the one that restarts more.
    const REDIRECT_CYCLES: f64 = 1.0;
    if scheme == SchemeKind::Perfect {
        return f64::from(machine.issue_rate);
    }
    let mut insts = 0.0;
    let mut packets = 0.0;
    for i in 0..program.num_blocks() {
        let w = weights.get(i).copied().unwrap_or(0.0);
        let run = run_insts.get(i).copied().unwrap_or(0.0);
        if w <= 0.0 || run <= 0.0 {
            continue;
        }
        let mut offset = layout
            .block_addr(BlockId(i as u32))
            .offset_words(machine.block_bytes);
        let mut remaining = run;
        let mut cycles = 0.0;
        while remaining > 1e-9 {
            let take = f64::from(machine.straight_line_packet(scheme, offset));
            offset += take as u64;
            remaining -= take;
            cycles += 1.0;
        }
        insts += w * run;
        packets += w * (cycles + REDIRECT_CYCLES);
    }
    if packets == 0.0 {
        0.0
    } else {
        (insts / packets).min(f64::from(machine.issue_rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_isa::{Inst, LayoutOptions, ProgramBuilder, Reg, Terminator};
    use fetchmech_workloads::suite;

    fn machine() -> MachineModel {
        MachineModel::p14()
    }

    /// One straight-line block of `n` ALU instructions ending in halt.
    fn straight(n: usize) -> Program {
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let blk = b.new_block(f);
        for _ in 0..n {
            b.push_inst(
                blk,
                Inst::new(OpClass::IntAlu, Some(Reg::int(1)), [None, None]),
            );
        }
        b.set_terminator(blk, Terminator::Halt);
        b.set_entry(blk);
        b.finish().expect("valid")
    }

    #[test]
    fn straight_line_bounds_by_scheme() {
        let p = straight(32);
        let layout = Layout::natural(&p, LayoutOptions::new(16)).expect("layout");
        let m = machine();
        let report = analyze_geometry(&p, &layout, &m);
        // An aligned straight-line run: every scheme reaches the issue rate
        // from an aligned start (4 insts fit one 16-byte line).
        for s in &report.schemes {
            assert_eq!(s.eir_bound, 4.0, "{}", s.scheme);
        }
        // Sequential streaming an aligned block has no alignment breaks;
        // neither do the paired schemes.
        assert_eq!(report.scheme(SchemeKind::Sequential).align_breaks, 0);
        assert_eq!(report.scheme(SchemeKind::Perfect).taken_breaks, 0);
        // The halt is a taken transfer the at-taken schemes break on.
        assert!(report.scheme(SchemeKind::Sequential).taken_breaks >= 1);
    }

    #[test]
    fn misaligned_entry_caps_sequential_packets() {
        // Two blocks: a 1-inst block then a long block, so the second block
        // starts mid-line; sequential's entry packet there is < issue rate.
        let mut b = ProgramBuilder::new();
        let f = b.begin_func();
        let a = b.new_block(f);
        let long = b.new_block(f);
        b.push_inst(
            a,
            Inst::new(OpClass::IntAlu, Some(Reg::int(1)), [None, None]),
        );
        // 7 body insts + the materialized halt = 8 laid insts starting at
        // offset 1: sequential needs 3 packets (3, 4, 1) where bandwidth
        // alone needs 2 — one alignment-induced break.
        for _ in 0..7 {
            b.push_inst(
                long,
                Inst::new(OpClass::IntAlu, Some(Reg::int(2)), [None, None]),
            );
        }
        b.set_terminator(a, Terminator::FallThrough { next: long });
        b.set_terminator(long, Terminator::Halt);
        b.set_entry(a);
        let p = b.finish().expect("valid");
        let layout = Layout::natural(&p, LayoutOptions::new(16)).expect("layout");
        let m = machine();
        let report = analyze_geometry(&p, &layout, &m);
        let geo = &report.blocks[1];
        assert_eq!(geo.entry_offset, 1);
        assert!(geo.straddles >= 1, "long block straddles lines");
        // Sequential streaming the misaligned long block needs extra packets.
        assert!(report.scheme(SchemeKind::Sequential).align_breaks > 0);
        // The interleaved pair hides the straddle; its entry-packet mean is
        // at least sequential's.
        let seq = report.scheme(SchemeKind::Sequential).mean_entry_packet;
        let il = report
            .scheme(SchemeKind::InterleavedSequential)
            .mean_entry_packet;
        assert!(il >= seq, "interleaved {il} >= sequential {seq}");
    }

    #[test]
    fn bound_orders_match_scheme_capability() {
        // On real workload layouts the static bounds are ordered like the
        // schemes' capabilities (each extra mechanism only relaxes the walk).
        let w = suite::benchmark("compress").expect("known");
        let layout = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let m = machine();
        let report = analyze_geometry(&w.program, &layout, &m);
        let bound = |s: SchemeKind| report.scheme(s).eir_bound;
        assert!(bound(SchemeKind::Sequential) <= bound(SchemeKind::InterleavedSequential));
        assert!(bound(SchemeKind::BankedSequential) <= bound(SchemeKind::CollapsingBuffer));
        assert!(bound(SchemeKind::CollapsingBuffer) <= bound(SchemeKind::Perfect));
        for s in &report.schemes {
            assert!(s.eir_bound <= f64::from(m.issue_rate));
            assert!(s.eir_bound >= 1.0, "{}: any start delivers >= 1", s.scheme);
        }
    }

    #[test]
    fn taken_breaks_decrease_with_capability() {
        let w = suite::benchmark("eqntott").expect("known");
        let layout = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let report = analyze_geometry(&w.program, &layout, &machine());
        let breaks = |s: SchemeKind| report.scheme(s).taken_breaks;
        assert_eq!(breaks(SchemeKind::Perfect), 0);
        assert!(breaks(SchemeKind::CollapsingBuffer) <= breaks(SchemeKind::BankedSequential));
        assert!(breaks(SchemeKind::BankedSequential) <= breaks(SchemeKind::Sequential));
        // Sequential breaks at every control site.
        let ctrl_sites = layout.code().iter().filter(|i| i.ctrl.is_some()).count() as u64;
        assert_eq!(breaks(SchemeKind::Sequential), ctrl_sites);
    }

    #[test]
    fn block_footprints_cover_the_layout() {
        let w = suite::benchmark("ora").expect("known");
        let layout = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let report = analyze_geometry(&w.program, &layout, &machine());
        let total: u64 = report.blocks.iter().map(|b| u64::from(b.insts)).sum();
        assert_eq!(total, layout.code().len() as u64);
        for b in &report.blocks {
            assert_eq!(b.straddles, b.lines.saturating_sub(1));
        }
    }
}
