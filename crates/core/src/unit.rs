//! The trace-driven fetch unit implementing all five alignment schemes.
//!
//! Two drivers share one mechanism model:
//!
//! * [`AlignedFetchUnit`] — the per-instruction oracle, walking a
//!   [`TraceCursor`] one instruction at a time. This is the reference
//!   implementation every optimization is checked against.
//! * [`BlockFetchUnit`] — the block-stream fast path, walking a
//!   [`BlockCursor`] over run-length fetch-block segments and admitting
//!   straight-line spans a cache block at a time. It emits packets in
//!   run-length form ([`BlockPacket`]) and reports *why* idle cycles were
//!   idle ([`FetchOutcome`]), which is what lets the simulator loop skip
//!   provably-quiet stretches of cycles.
//!
//! Both drivers delegate every prediction, admission, and continuation
//! decision to the shared `FrontEnd`, so each mechanism's geometric
//! constraints are enforced identically:
//!
//! * which cache blocks are readable this cycle (one block, the next
//!   sequential block, or the BTB-predicted successor block subject to bank
//!   conflicts),
//! * whether delivery may continue past a correctly-predicted taken branch
//!   (never / inter-block only / also forward intra-block via collapsing),
//! * the BTB's predictions and 2-cycle redirect penalty on mispredicts, and
//! * the machine's branch-speculation depth.
//!
//! Because the simulation is trace-driven on the correct path, a mispredicted
//! control transfer ends the packet and stalls the unit until the pipeline
//! reports resolution; the bad-path fetch itself is not simulated (its cost
//! is the stall, exactly the paper's penalty model).

use fetchmech_bpred::{Btb, PredictorKind, Tournament};
use fetchmech_cache::ICache;
use fetchmech_isa::{Addr, DynInst, OpClass};
use fetchmech_pipeline::{BlockCursor, FetchPacket, FetchedInst, MachineModel, TraceCursor};

use crate::scheme::SchemeKind;

/// Why packets ended, for analysis (sums to the packet count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BreakdownStats {
    /// Hit the issue-rate bandwidth limit.
    pub bandwidth: u64,
    /// Ran off the end of the readable block region.
    pub region_end: u64,
    /// Ended at a correctly-predicted taken branch the scheme could not
    /// fetch across.
    pub taken_break: u64,
    /// Ended at a mispredicted control transfer.
    pub mispredict: u64,
    /// Stopped by the branch-speculation depth limit.
    pub spec_limit: u64,
    /// Trace exhausted.
    pub trace_end: u64,
}

/// Fetch-unit statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FetchStats {
    /// Non-empty packets produced.
    pub packets: u64,
    /// Demand I-cache misses that stalled fetch: one per miss, *not* the
    /// cycles spent waiting for the fill (despite the name, which the JSON
    /// surfaces keep).
    pub miss_stall_cycles: u64,
    /// Cycles that delivered nothing while waiting on a mispredict redirect.
    pub redirect_stall_cycles: u64,
    /// Mispredicted control transfers encountered.
    pub mispredicts: u64,
    /// Control transfers predicted.
    pub predicted_controls: u64,
    /// Conditional branches predicted.
    pub cond_predictions: u64,
    /// Conditional branches whose *direction* was mispredicted (excludes
    /// correct-direction target misses, which no direction predictor fixes).
    pub cond_dir_mispredicts: u64,
    /// Successor-block fetches lost to bank conflicts (banked/collapsing).
    pub bank_conflicts: u64,
    /// Taken branches fetched across within a single cycle (inter-block).
    pub crossed_taken: u64,
    /// Intra-block forward branches collapsed (collapsing buffer only).
    pub collapsed: u64,
    /// Return-address-stack predictions used.
    pub ras_predictions: u64,
    /// RAS predictions whose target matched the actual return address.
    pub ras_correct: u64,
    /// Why packets ended.
    pub breaks: BreakdownStats,
}

impl FetchStats {
    /// Branch misprediction rate over all predicted control transfers.
    #[must_use]
    pub fn mispredict_rate(&self) -> f64 {
        if self.predicted_controls == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.predicted_controls as f64
        }
    }

    /// Direction misprediction rate over conditional branches only.
    #[must_use]
    pub(crate) fn cond_dir_mispredict_rate(&self) -> f64 {
        if self.cond_predictions == 0 {
            0.0
        } else {
            self.cond_dir_mispredicts as f64 / self.cond_predictions as f64
        }
    }
}

/// What the walk decided about one candidate instruction.
enum Step {
    /// Deliver and keep walking.
    Take,
    /// Deliver, then end the packet (records the break reason).
    TakeAndBreak(Break),
}

/// The auxiliary direction-predictor state.
#[derive(Debug)]
enum DirPredictor {
    /// The paper's baseline: directions from the BTB's own 2-bit counters.
    BtbCounters,
    /// McFarling's combining predictor.
    Tournament(Tournament),
}

#[derive(Debug, Clone, Copy)]
enum Break {
    Bandwidth,
    RegionEnd,
    AtTaken,
    Mispredict,
    SpecLimit,
}

/// Per-cycle walk state: which blocks are readable and where the walk is.
struct Region {
    fetch_block: Addr,
    /// Second readable block (sequential-next or predicted successor).
    second: Option<Addr>,
    /// Set once delivery has moved into the second block (no going back).
    in_second: bool,
    /// An inter-block taken branch has been crossed this cycle.
    crossed: bool,
}

/// Predictor, cache, and statistics state shared by the per-instruction
/// oracle and the block-stream fast path. Every prediction, block-admission,
/// and taken-branch-continuation decision lives here, so the two fetch
/// drivers cannot drift apart — the differential-oracle tests assert their
/// entire statistics blocks stay bit-identical.
#[derive(Debug)]
struct FrontEnd {
    machine: MachineModel,
    scheme: SchemeKind,
    icache: ICache,
    btb: Btb,
    /// Earliest cycle at which the unit may deliver again (miss or redirect).
    resume_at: u64,
    /// Auxiliary direction predictor, when configured.
    dir: DirPredictor,
    /// Return-address stack (youngest last); empty when disabled.
    ras: Vec<Addr>,
    /// Set after delivering a mispredicted control transfer; cleared by
    /// `on_mispredict_resolved`.
    waiting_resolve: bool,
    delivered: u64,
    stats: FetchStats,
}

impl FrontEnd {
    /// Fresh cache, BTB and predictor state for `machine` running `scheme`.
    fn new(machine: &MachineModel, scheme: SchemeKind) -> Self {
        let dir = match machine.predictor {
            PredictorKind::TwoBitBtb => DirPredictor::BtbCounters,
            PredictorKind::Tournament => DirPredictor::Tournament(Tournament::new()),
        };
        Self {
            machine: machine.clone(),
            scheme,
            icache: ICache::new(machine.cache_config()),
            btb: Btb::new(machine.btb_entries),
            dir,
            ras: Vec::new(),
            resume_at: 0,
            waiting_resolve: false,
            delivered: 0,
            stats: FetchStats::default(),
        }
    }

    /// Determines the successor block the banked/collapsing hardware would
    /// fetch alongside `fetch_block`: the predicted target block of the first
    /// BTB-predicted-taken slot at or after the fetch offset, else the next
    /// sequential block. `peek` looks ahead in the undelivered trace without
    /// consuming it.
    ///
    /// The walk follows the actual trace, which matches the hardware's BTB
    /// query whenever the predictions are correct; when they are wrong the
    /// packet ends at the mispredicted branch and the successor block is
    /// irrelevant to delivered instructions.
    fn predicted_successor<'a>(
        &mut self,
        fetch_block: Addr,
        peek: &mut impl FnMut(usize) -> Option<&'a DynInst>,
    ) -> Addr {
        let bs = self.machine.block_bytes;
        let mut i = 0usize;
        loop {
            let Some(inst) = peek(i) else {
                return fetch_block.add_words(bs / fetchmech_isa::WORD_BYTES);
            };
            if inst.addr.block_base(bs) != fetch_block {
                return fetch_block.add_words(bs / fetchmech_isa::WORD_BYTES);
            }
            if let Some(ctrl) = inst.ctrl {
                let is_cond = inst.op == OpClass::CondBranch;
                let pred = self.btb.peek(inst.addr, is_cond);
                if inst.op == OpClass::Return && self.machine.ras_entries > 0 {
                    if let Some(&rt) = self.ras.last() {
                        return rt.block_base(bs);
                    }
                }
                let taken_pred = if is_cond {
                    match &self.dir {
                        DirPredictor::BtbCounters => pred.taken,
                        DirPredictor::Tournament(t) => t.predict(inst.addr) && pred.hit,
                    }
                } else {
                    pred.taken
                };
                if taken_pred {
                    if let Some(target) = pred.target {
                        return target.block_base(bs);
                    }
                }
                // Predicted not-taken: the hardware continues scanning the
                // block sequentially. If the branch is actually taken we
                // stop delivering there anyway (mispredict), so following
                // the trace beyond it cannot affect delivered instructions.
                let _ = ctrl;
            }
            i += 1;
            if i as u32 > self.machine.issue_rate * 2 {
                return fetch_block.add_words(bs / fetchmech_isa::WORD_BYTES);
            }
        }
    }

    /// Predicts + trains the predictor state for one control transfer;
    /// returns `true` if the prediction was correct.
    fn predict_and_train(&mut self, inst: &DynInst) -> bool {
        let ctrl = inst.ctrl.expect("control instruction has ctrl info");
        let is_cond = inst.op == OpClass::CondBranch;
        let pred = self.btb.predict(inst.addr, is_cond);
        // Return-address stack: calls push their link address; returns pop
        // their predicted target, overriding the BTB.
        let ras_on = self.machine.ras_entries > 0;
        if ras_on && inst.op == OpClass::Call {
            if let Some(link) = ctrl.link {
                if self.ras.len() as u32 >= self.machine.ras_entries {
                    self.ras.remove(0);
                }
                self.ras.push(link);
            }
        }
        let ras_target = if ras_on && inst.op == OpClass::Return {
            let t = self.ras.pop();
            if t.is_some() {
                self.stats.ras_predictions += 1;
                if t == Some(inst.next_pc) {
                    self.stats.ras_correct += 1;
                }
            }
            t
        } else {
            None
        };
        // With an auxiliary predictor, the direction comes from it; a taken
        // prediction is still only actionable with a BTB-cached target.
        let (taken_pred, target_pred) = if let Some(rt) = ras_target {
            (true, Some(rt))
        } else if is_cond {
            let dir = match &self.dir {
                DirPredictor::BtbCounters => pred.taken,
                DirPredictor::Tournament(t) => t.predict(inst.addr) && pred.hit,
            };
            (dir, pred.target)
        } else {
            (pred.taken, pred.target)
        };
        self.stats.predicted_controls += 1;
        if is_cond {
            self.stats.cond_predictions += 1;
            if taken_pred != ctrl.taken {
                self.stats.cond_dir_mispredicts += 1;
            }
        }
        let correct = if ctrl.taken {
            taken_pred && target_pred == Some(inst.next_pc)
        } else {
            !taken_pred
        };
        // Train with the resolved outcome. The update is applied at fetch
        // time: along the correct path this equals an in-order update at
        // resolution, the standard trace-driven-simulation treatment.
        self.btb
            .update(inst.addr, is_cond, ctrl.taken, inst.next_pc);
        if is_cond {
            match &mut self.dir {
                DirPredictor::BtbCounters => {}
                DirPredictor::Tournament(t) => t.update(inst.addr, ctrl.taken),
            }
        }
        if !correct {
            self.stats.mispredicts += 1;
        }
        correct
    }

    /// Opens the cycle's readable-block region: demand-accesses the fetch
    /// block (recording a miss stall and returning `None` on a miss), runs
    /// the perfect scheme's prefetches, and selects the second readable
    /// block per scheme.
    fn open_region<'a>(
        &mut self,
        cycle: u64,
        pc: Addr,
        mut peek: impl FnMut(usize) -> Option<&'a DynInst>,
    ) -> Option<Region> {
        let scheme = self.scheme;
        let bs = self.machine.block_bytes;
        let fetch_block = pc.block_base(bs);

        // Demand access for the fetch block (perfect accesses lazily in
        // `admit`, but its first block is a demand access too).
        if !self.icache.access(fetch_block).is_hit() {
            self.resume_at = cycle + u64::from(self.machine.icache_miss_penalty);
            self.stats.miss_stall_cycles += 1;
            return None;
        }

        // Second readable block, per scheme.
        if scheme == SchemeKind::Perfect {
            // Unlimited-bandwidth front end: prefetch the next sequential
            // block *and* the BTB-predicted successor block (fill only),
            // matching the banked schemes' prefetching, so the upper bound
            // is never penalized for lacking a prefetcher. Without the
            // successor prefetch, collapsing can beat perfect on cold
            // caches by warming branch targets a cycle early.
            let next = fetch_block.add_words(bs / fetchmech_isa::WORD_BYTES);
            let _ = self.icache.access(next);
            let succ = self.predicted_successor(fetch_block, &mut peek);
            if succ != fetch_block && succ != next {
                let _ = self.icache.access(succ);
            }
        }
        let second = match scheme {
            SchemeKind::Sequential | SchemeKind::Perfect => None,
            SchemeKind::InterleavedSequential => {
                Some(fetch_block.add_words(bs / fetchmech_isa::WORD_BYTES))
            }
            SchemeKind::BankedSequential | SchemeKind::CollapsingBuffer => {
                let succ = self.predicted_successor(fetch_block, &mut peek);
                if succ == fetch_block {
                    // Predicted intra-block target: no second block to fetch
                    // (the collapsing buffer reuses the fetch block itself).
                    None
                } else if self.icache.config().bank_of(succ)
                    == self.icache.config().bank_of(fetch_block)
                {
                    self.stats.bank_conflicts += 1;
                    None
                } else {
                    Some(succ)
                }
            }
        };
        // Prefetch/partner access: a miss fills the block for next cycle but
        // makes it unusable now; it does not stall the demand fetch.
        let second = second.filter(|&s| self.icache.access(s).is_hit());

        Some(Region {
            fetch_block,
            second,
            in_second: false,
            crossed: false,
        })
    }

    /// Geometry: is an instruction in cache block `blk` readable this cycle?
    /// Updates the region (second-block entry; the perfect scheme's lazy
    /// accesses and chained prefetch) and records the break reason on
    /// rejection. Idempotent for consecutive instructions in one block,
    /// which is what lets the block-stream walk admit whole spans at once.
    fn admit(&mut self, region: &mut Region, blk: Addr, ended: &mut Option<Break>) -> bool {
        match self.scheme {
            SchemeKind::Perfect => {
                // Unlimited alignment and bandwidth: further blocks are
                // accessed as the packet grows; a miss ends the packet
                // and fills the block without a stall (the unlimited-
                // bandwidth front end prefetches as well as the banked
                // schemes do). Only the demand miss on the fetch block
                // itself stalls, like every other scheme.
                if blk != region.fetch_block && Some(blk) != region.second {
                    if self.icache.access(blk).is_hit() {
                        region.second = Some(blk); // remember most recent
                                                   // Chain the prefetch: a multi-block packet outruns
                                                   // the packet-start prefetches, so each block the
                                                   // walk enters prefetches its sequential successor
                                                   // (fill only) — otherwise the *next* cycle's
                                                   // demand fetch lands on a cold block and perfect
                                                   // stalls where the one-pair-per-cycle schemes,
                                                   // whose partner prefetch keeps pace, would not.
                        let next =
                            blk.add_words(self.machine.block_bytes / fetchmech_isa::WORD_BYTES);
                        let _ = self.icache.access(next);
                        true
                    } else {
                        *ended = Some(Break::RegionEnd);
                        false
                    }
                } else {
                    true
                }
            }
            _ => {
                if blk == region.fetch_block && !region.in_second {
                    true
                } else if Some(blk) == region.second {
                    region.in_second = true;
                    true
                } else {
                    *ended = Some(Break::RegionEnd);
                    false
                }
            }
        }
    }

    /// Continuation decision at a correctly-predicted taken branch: may the
    /// scheme keep delivering at the target within this same cycle?
    fn taken_step(&mut self, region: &mut Region, inst_addr: Addr, target: Addr) -> Step {
        let bs = self.machine.block_bytes;
        let tblk = target.block_base(bs);
        match self.scheme {
            SchemeKind::Perfect => Step::Take,
            SchemeKind::Sequential | SchemeKind::InterleavedSequential => {
                Step::TakeAndBreak(Break::AtTaken)
            }
            SchemeKind::BankedSequential => {
                let current = if region.in_second {
                    region.second
                } else {
                    Some(region.fetch_block)
                };
                if !region.crossed && Some(tblk) != current && Some(tblk) == region.second {
                    region.crossed = true;
                    region.in_second = true;
                    self.stats.crossed_taken += 1;
                    Step::Take
                } else {
                    Step::TakeAndBreak(Break::AtTaken)
                }
            }
            SchemeKind::CollapsingBuffer => {
                let current_blk = if region.in_second {
                    region.second
                } else {
                    Some(region.fetch_block)
                };
                if Some(tblk) == current_blk && target > inst_addr {
                    // Forward intra-block: collapse the gap.
                    self.stats.collapsed += 1;
                    Step::Take
                } else if !region.crossed
                    && Some(tblk) != current_blk
                    && Some(tblk) == region.second
                {
                    region.crossed = true;
                    region.in_second = true;
                    self.stats.crossed_taken += 1;
                    Step::Take
                } else {
                    // Backward intra-block targets and second
                    // inter-block transfers are unsupported.
                    Step::TakeAndBreak(Break::AtTaken)
                }
            }
        }
    }

    fn note_break(&mut self, b: Break) {
        match b {
            Break::Bandwidth => self.stats.breaks.bandwidth += 1,
            Break::RegionEnd => self.stats.breaks.region_end += 1,
            Break::AtTaken => self.stats.breaks.taken_break += 1,
            Break::Mispredict => self.stats.breaks.mispredict += 1,
            Break::SpecLimit => self.stats.breaks.spec_limit += 1,
        }
    }

    fn on_mispredict_resolved(&mut self, cycle: u64) {
        debug_assert!(
            self.waiting_resolve,
            "resolution without an outstanding mispredict"
        );
        self.waiting_resolve = false;
        self.resume_at = cycle + u64::from(self.machine.fetch_penalty);
    }
}

/// The per-instruction fetch unit — the reference oracle. The reference
/// simulator drives it one [`cycle`](Self::cycle) at a time.
#[derive(Debug)]
pub struct AlignedFetchUnit {
    fe: FrontEnd,
    cursor: TraceCursor,
}

impl AlignedFetchUnit {
    /// Creates a fetch unit over `trace` with fresh cache and BTB state.
    #[must_use]
    pub(crate) fn new(machine: &MachineModel, scheme: SchemeKind, trace: TraceCursor) -> Self {
        Self {
            fe: FrontEnd::new(machine, scheme),
            cursor: trace,
        }
    }

    /// Returns fetch statistics.
    #[must_use]
    pub fn stats(&self) -> &FetchStats {
        &self.fe.stats
    }

    /// Returns the instruction cache (for hit/miss statistics).
    #[must_use]
    pub(crate) fn icache(&self) -> &ICache {
        &self.fe.icache
    }

    /// Returns the branch-target buffer (for predictor statistics).
    #[must_use]
    pub(crate) fn btb(&self) -> &Btb {
        &self.fe.btb
    }

    /// Produces this cycle's packet.
    ///
    /// The contract with the simulator driving the unit:
    ///
    /// 1. `cycle` is called once per simulated cycle in which the
    ///    decoupling queue has room. It returns the instructions the
    ///    mechanism could align and deliver that cycle (possibly none).
    /// 2. If the returned packet
    ///    [ends mispredicted](FetchPacket::ends_mispredicted), the unit
    ///    delivers nothing until [`on_mispredict_resolved`](Self::on_mispredict_resolved)
    ///    is called with the cycle at which the offending instruction
    ///    executed; delivery then resumes no earlier than
    ///    `resolution + fetch_penalty` cycles.
    /// 3. `unresolved_branches` is the number of in-flight predicted
    ///    conditional branches (dispatched or queued, not yet executed); the
    ///    unit never fetches *past* a conditional branch once the count has
    ///    reached the machine's speculation depth.
    pub fn cycle(&mut self, cycle: u64, unresolved_branches: u32) -> FetchPacket {
        if self.fe.waiting_resolve {
            self.fe.stats.redirect_stall_cycles += 1;
            return FetchPacket::empty();
        }
        if cycle < self.fe.resume_at {
            return FetchPacket::empty();
        }
        let Some(&first) = self.cursor.peek(0) else {
            return FetchPacket::empty();
        };
        let bs = self.fe.machine.block_bytes;
        let cursor = &self.cursor;
        let Some(mut region) = self.fe.open_region(cycle, first.addr, |i| cursor.peek(i)) else {
            return FetchPacket::empty();
        };

        let mut packet = FetchPacket::empty();
        let mut conds_in_packet = 0u32;
        let mut ended: Option<Break> = None;

        loop {
            let n = packet.len();
            let Some(&inst) = self.cursor.peek(n) else {
                self.fe.stats.breaks.trace_end += u64::from(n > 0);
                break;
            };
            if n as u32 >= self.fe.machine.issue_rate {
                ended = Some(Break::Bandwidth);
                break;
            }
            // Speculation depth: no instruction may be fetched once the
            // unresolved-branch count (older in-flight + in this packet)
            // exceeds the machine's limit.
            if unresolved_branches + conds_in_packet > self.fe.machine.spec_depth {
                ended = Some(Break::SpecLimit);
                break;
            }
            // Geometry: is this instruction readable this cycle?
            let blk = inst.addr.block_base(bs);
            if !self.fe.admit(&mut region, blk, &mut ended) {
                break;
            }

            // Control transfers: predict, train, and decide continuation.
            let step = if let Some(ictrl) = inst.ctrl {
                let correct = self.fe.predict_and_train(&inst);
                if inst.op == OpClass::CondBranch {
                    conds_in_packet += 1;
                }
                if !correct {
                    Step::TakeAndBreak(Break::Mispredict)
                } else if !ictrl.taken {
                    Step::Take
                } else {
                    // Correctly-predicted taken: may the scheme continue at
                    // the target within this same cycle?
                    self.fe.taken_step(&mut region, inst.addr, inst.next_pc)
                }
            } else {
                Step::Take
            };

            match step {
                Step::Take => {
                    packet.insts.push(FetchedInst {
                        inst,
                        mispredicted: false,
                    });
                }
                Step::TakeAndBreak(b) => {
                    let mispredicted = matches!(b, Break::Mispredict);
                    packet.insts.push(FetchedInst { inst, mispredicted });
                    ended = Some(b);
                    if mispredicted {
                        self.fe.waiting_resolve = true;
                    }
                    break;
                }
            }
        }

        if let Some(b) = ended {
            self.fe.note_break(b);
        }
        let n = packet.len();
        if n > 0 {
            self.fe.stats.packets += 1;
            self.fe.delivered += n as u64;
            self.cursor.consume(n);
        }
        packet
    }

    /// Reports that the mispredicted control transfer at the end of a
    /// previous packet executed at `cycle`.
    pub fn on_mispredict_resolved(&mut self, cycle: u64) {
        self.fe.on_mispredict_resolved(cycle);
    }

    /// Returns `true` once the trace is exhausted and everything has been
    /// delivered.
    #[must_use]
    pub(crate) fn done(&self) -> bool {
        self.cursor.is_done()
    }

    /// Total instructions delivered so far (the numerator of EIR).
    #[must_use]
    pub(crate) fn delivered(&self) -> u64 {
        self.fe.delivered
    }
}

/// A fetch packet in run-length form: spans of consecutive instructions
/// inside interned segment templates instead of materialized
/// [`FetchedInst`]s. The simulator loop resolves spans against its own
/// handle to the shared [`BlockStream`](fetchmech_isa::BlockStream).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockPacket {
    /// `(template id, start offset, length)` spans in delivery order.
    pub runs: Vec<(u32, u32, u32)>,
    /// Total instructions delivered.
    pub len: u32,
    /// Padding nops among them.
    pub nops: u32,
    /// Conditional branches among them.
    pub conds: u32,
    /// The final instruction is a mispredicted control transfer.
    pub mispredicted: bool,
}

impl BlockPacket {
    /// Resets the packet for reuse (the simulator loop recycles one buffer).
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
        self.len = 0;
        self.nops = 0;
        self.conds = 0;
        self.mispredicted = false;
    }

    fn push_run(&mut self, id: u32, off: u32, len: u32) {
        if let Some(last) = self.runs.last_mut() {
            if last.0 == id && last.1 + last.2 == off {
                last.2 += len;
                return;
            }
        }
        self.runs.push((id, off, len));
    }
}

/// What a [`BlockFetchUnit`] cycle produced — and, when it produced nothing,
/// *why*, so the simulator loop can decide whether the idle stretch is
/// skippable (stalls with a known end) or must be simulated cycle by cycle
/// (speculation-depth blocking performs real cache accesses every cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// A non-empty packet was delivered.
    Delivered,
    /// Waiting for the pipeline to resolve a mispredicted control transfer
    /// (each such cycle records a redirect stall).
    AwaitResolve,
    /// Stalled on an I-cache miss or post-redirect penalty; the unit
    /// delivers nothing before the given cycle.
    Stalled {
        /// First cycle at which delivery may resume.
        until: u64,
    },
    /// The speculation-depth limit blocked the packet's first instruction.
    SpecBlocked,
    /// The stream is exhausted.
    Done,
}

/// The block-stream fetch unit — the fast path. Behaviourally identical to
/// [`AlignedFetchUnit`] over the same dynamic instruction sequence (both
/// drive the shared `FrontEnd`; the differential-oracle tests enforce
/// equality), but it walks run-length segment records and admits
/// straight-line spans up to a cache-block boundary in one step instead of
/// re-deciding geometry per instruction.
#[derive(Debug)]
pub struct BlockFetchUnit {
    fe: FrontEnd,
    cursor: BlockCursor,
}

impl BlockFetchUnit {
    /// Creates a fetch unit over a block stream with fresh cache and BTB
    /// state.
    #[must_use]
    pub(crate) fn new(machine: &MachineModel, scheme: SchemeKind, cursor: BlockCursor) -> Self {
        Self {
            fe: FrontEnd::new(machine, scheme),
            cursor,
        }
    }

    /// Returns fetch statistics.
    #[must_use]
    pub(crate) fn stats(&self) -> &FetchStats {
        &self.fe.stats
    }

    /// Returns the instruction cache (for hit/miss statistics).
    #[must_use]
    pub(crate) fn icache(&self) -> &ICache {
        &self.fe.icache
    }

    /// Returns the branch-target buffer (for predictor statistics).
    #[must_use]
    pub(crate) fn btb(&self) -> &Btb {
        &self.fe.btb
    }

    /// Instructions delivered so far (including nops).
    #[must_use]
    pub(crate) fn delivered(&self) -> u64 {
        self.fe.delivered
    }

    /// `true` when the stream is exhausted.
    #[must_use]
    pub(crate) fn done(&self) -> bool {
        self.cursor.is_done()
    }

    /// Reports resolution of the outstanding mispredicted control transfer;
    /// delivery resumes after the fetch-pipeline penalty.
    pub(crate) fn on_mispredict_resolved(&mut self, cycle: u64) {
        self.fe.on_mispredict_resolved(cycle);
    }

    /// Accounts `n` skipped redirect-wait cycles at once. The simulator's
    /// idle-cycle skip must keep the per-cycle stall counters exact: the
    /// oracle records one redirect stall per empty waiting cycle, so a loop
    /// that jumps over `n` such cycles adds them here.
    pub(crate) fn add_redirect_stalls(&mut self, n: u64) {
        debug_assert!(self.fe.waiting_resolve);
        self.fe.stats.redirect_stall_cycles += n;
    }

    /// Runs one fetch cycle, filling `out` with the delivered packet in
    /// run-length form (the packet is cleared first). Returns what happened,
    /// including the reason when nothing was delivered.
    pub(crate) fn cycle_into(
        &mut self,
        cycle: u64,
        unresolved_branches: u32,
        out: &mut BlockPacket,
    ) -> FetchOutcome {
        out.clear();
        if self.fe.waiting_resolve {
            self.fe.stats.redirect_stall_cycles += 1;
            return FetchOutcome::AwaitResolve;
        }
        if cycle < self.fe.resume_at {
            return FetchOutcome::Stalled {
                until: self.fe.resume_at,
            };
        }
        let stream = self.cursor.stream();
        let records = stream.records();
        let mut rec = self.cursor.record_index();
        let mut off = self.cursor.offset();
        if rec >= records.len() {
            return FetchOutcome::Done;
        }
        let bs = self.fe.machine.block_bytes;
        let issue_rate = self.fe.machine.issue_rate;
        let spec_depth = self.fe.machine.spec_depth;
        let first_addr = stream.template(records[rec]).insts()[off].addr;
        // `open_region` peeks at monotonically increasing offsets, so one
        // incremental walk over the stream serves every peek.
        let cursor = &self.cursor;
        let mut ahead = cursor.iter_ahead();
        let mut ahead_next = 0usize;
        let peek_seq = move |i: usize| -> Option<&DynInst> {
            debug_assert!(i >= ahead_next, "open_region peeks must be monotonic");
            while ahead_next < i {
                ahead.next()?;
                ahead_next += 1;
            }
            ahead_next = i + 1;
            ahead.next()
        };
        let Some(mut region) = self.fe.open_region(cycle, first_addr, peek_seq) else {
            return FetchOutcome::Stalled {
                until: self.fe.resume_at,
            };
        };

        let mut n = 0u32;
        // Conditional branches that went through the predictor this packet —
        // the speculation-depth count. Mirrors the oracle, which only counts
        // control-annotated conditionals toward the limit.
        let mut conds_pred = 0u32;
        let mut ended: Option<Break> = None;

        loop {
            if rec >= records.len() {
                self.fe.stats.breaks.trace_end += u64::from(n > 0);
                break;
            }
            if n >= issue_rate {
                ended = Some(Break::Bandwidth);
                break;
            }
            if unresolved_branches + conds_pred > spec_depth {
                ended = Some(Break::SpecLimit);
                break;
            }
            let tid = records[rec];
            let tpl = stream.template(tid);
            let inst = &tpl.insts()[off];
            let blk = inst.addr.block_base(bs);
            if !self.fe.admit(&mut region, blk, &mut ended) {
                break;
            }

            if let Some(ictrl) = inst.ctrl {
                // The segment terminal (only the last instruction of a
                // template may carry control info): predict, train, decide.
                debug_assert_eq!(off + 1, tpl.len(), "ctrl only on the terminal");
                let correct = self.fe.predict_and_train(inst);
                if inst.op == OpClass::CondBranch {
                    conds_pred += 1;
                    out.conds += 1;
                }
                if inst.op == OpClass::Nop {
                    out.nops += 1;
                }
                let step = if !correct {
                    Step::TakeAndBreak(Break::Mispredict)
                } else if !ictrl.taken {
                    Step::Take
                } else {
                    self.fe.taken_step(&mut region, inst.addr, inst.next_pc)
                };
                out.push_run(tid, off as u32, 1);
                n += 1;
                rec += 1;
                off = 0;
                if let Step::TakeAndBreak(b) = step {
                    out.mispredicted = matches!(b, Break::Mispredict);
                    if out.mispredicted {
                        self.fe.waiting_resolve = true;
                    }
                    ended = Some(b);
                    break;
                }
            } else {
                // A straight-line span: bandwidth, speculation state, and
                // (within one cache block) geometry are constant across it,
                // so admit a whole chunk at once. `admit` is idempotent for
                // instructions sharing a block, making one call per chunk
                // exactly equivalent to the oracle's per-instruction calls.
                let plain_end = tpl.len() - usize::from(tpl.terminal().is_some());
                let mut chunk = (plain_end - off).min((issue_rate - n) as usize);
                if tpl.sequential() {
                    let to_block_end = ((bs - (inst.addr.byte() - blk.byte()))
                        / fetchmech_isa::WORD_BYTES)
                        as usize;
                    chunk = chunk.min(to_block_end);
                } else {
                    // Irregular addresses (hand-built traces): fall back to
                    // per-instruction geometry.
                    chunk = 1;
                }
                debug_assert!(chunk >= 1);
                out.nops += tpl.nops_in(off..off + chunk);
                let term_cond = matches!(tpl.terminal(), Some(t) if t.op == OpClass::CondBranch);
                if tpl.op_count(OpClass::CondBranch) > u32::from(term_cond) {
                    // Control-less conditional branches (possible only in
                    // hand-built traces) count for the dispatch queue but
                    // not the speculation limit — same as the oracle.
                    out.conds += tpl.insts()[off..off + chunk]
                        .iter()
                        .filter(|i| i.op == OpClass::CondBranch)
                        .count() as u32;
                }
                out.push_run(tid, off as u32, chunk as u32);
                n += chunk as u32;
                off += chunk;
                if off == tpl.len() {
                    rec += 1;
                    off = 0;
                }
            }
        }

        if let Some(b) = ended {
            self.fe.note_break(b);
        }
        if n > 0 {
            self.fe.stats.packets += 1;
            self.fe.delivered += u64::from(n);
            self.cursor.advance_to(rec, off, n as usize);
            out.len = n;
            FetchOutcome::Delivered
        } else {
            debug_assert!(
                matches!(ended, Some(Break::SpecLimit)),
                "only the speculation limit can empty a packet whose first \
                 instruction exists and whose fetch block hit"
            );
            FetchOutcome::SpecBlocked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_isa::DynCtrl;

    fn unit(scheme: SchemeKind, trace: Vec<DynInst>) -> AlignedFetchUnit {
        AlignedFetchUnit::new(&MachineModel::p14(), scheme, TraceCursor::new(trace))
    }

    fn alu(addr: u64) -> DynInst {
        DynInst::simple(Addr::new(addr), OpClass::IntAlu, None, [None, None])
    }

    fn br(addr: u64, taken: bool, target: u64) -> DynInst {
        DynInst {
            addr: Addr::new(addr),
            op: OpClass::CondBranch,
            dest: None,
            srcs: [None, None],
            next_pc: if taken {
                Addr::new(target)
            } else {
                Addr::new(addr + 4)
            },
            ctrl: Some(DynCtrl {
                taken,
                target: Addr::new(target),
                link: None,
            }),
        }
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

    /// Straight-line run at addresses `start..start+n` words.
    fn run(start: u64, n: u64) -> Vec<DynInst> {
        (0..n).map(|i| alu(start + 4 * i)).collect()
    }

    /// Repeats a physically-cyclic body `n` times. The body must loop: the
    /// last instruction's `next_pc` equals the first instruction's address,
    /// so the repeated stream is a legal dynamic trace.
    fn cycle_trace(body: Vec<DynInst>, n: usize) -> Vec<DynInst> {
        let first = body.first().expect("nonempty body").addr;
        let last = body.last().expect("nonempty body");
        assert_eq!(last.next_pc, first, "body must be physically cyclic");
        let mut v = Vec::with_capacity(body.len() * n);
        for _ in 0..n {
            v.extend(body.iter().copied());
        }
        v
    }

    /// Drives the unit until the trace is exhausted; returns packet sizes.
    fn drain(unit: &mut AlignedFetchUnit) -> Vec<usize> {
        let mut sizes = Vec::new();
        let mut cycle = 0;
        while !unit.done() {
            let p = unit.cycle(cycle, 0);
            if p.ends_mispredicted() {
                unit.on_mispredict_resolved(cycle + 2);
            }
            if !p.is_empty() {
                sizes.push(p.len());
            }
            cycle += 1;
            assert!(cycle < 10_000, "runaway fetch test");
        }
        sizes
    }

    /// Trains the unit by consuming at least `skip` instructions (resolving
    /// mispredicts immediately), then returns the next non-empty packet —
    /// the steady-state behaviour of the mechanism on the cyclic trace.
    fn steady_packet(u: &mut AlignedFetchUnit, skip: usize) -> FetchPacket {
        let mut consumed = 0usize;
        let mut cycle = 0u64;
        while consumed < skip {
            let p = u.cycle(cycle, 0);
            if p.ends_mispredicted() {
                u.on_mispredict_resolved(cycle);
            }
            consumed += p.len();
            cycle += 1;
            assert!(cycle < 10_000, "training stuck at {consumed}/{skip}");
        }
        loop {
            cycle += 1;
            let p = u.cycle(cycle, 0);
            if !p.is_empty() {
                return p;
            }
            assert!(cycle < 20_000, "no steady packet");
        }
    }

    #[test]
    fn sequential_delivers_one_block_per_cycle() {
        // 8 sequential instructions starting at a block boundary.
        let mut u = unit(SchemeKind::Sequential, run(0x1000, 8));
        let sizes = drain(&mut u);
        assert_eq!(sizes, vec![4, 4]);
    }

    #[test]
    fn sequential_misaligned_start_delivers_partial_block() {
        // Start mid-block: only 2 instructions remain in the first block.
        let mut u = unit(SchemeKind::Sequential, run(0x1008, 6));
        let sizes = drain(&mut u);
        assert_eq!(sizes, vec![2, 4]);
    }

    #[test]
    fn interleaved_crosses_block_boundary() {
        let mut u = unit(SchemeKind::InterleavedSequential, run(0x1008, 6));
        let sizes = drain(&mut u);
        // The cold prefetch of the second block misses (fill, no stall), so
        // the first packet covers only the fetch block's tail; once warm the
        // next packet spans the boundary.
        assert_eq!(sizes, vec![2, 4]);
    }

    #[test]
    fn interleaved_spans_boundary_when_warm() {
        // Loop body crossing a block boundary: ..., 0x1008..0x1014, jmp back.
        let body = vec![alu(0x1008), alu(0x100c), alu(0x1010), jmp(0x1014, 0x1008)];
        let mut u = unit(SchemeKind::InterleavedSequential, cycle_trace(body, 6));
        let p = steady_packet(&mut u, 8);
        // All four instructions, spanning blocks 0x1000 and 0x1010.
        assert_eq!(p.len(), 4, "{p:?}");
    }

    #[test]
    fn sequential_stops_at_taken_branch() {
        // Note 0x3008, not 0x3004: word 0x3004/4 = 3073 maps to the same
        // 1024-entry BTB slot as the branch at 0x1004 and would alias it.
        let body = vec![
            alu(0x1000),
            br(0x1004, true, 0x3000),
            alu(0x3000),
            alu(0x3004),
            jmp(0x3008, 0x1000),
        ];
        let mut u = unit(SchemeKind::Sequential, cycle_trace(body, 6));
        let p = steady_packet(&mut u, 10);
        // Even correctly predicted, sequential cannot pass the taken branch.
        assert_eq!(p.len(), 2, "{p:?}");
        assert!(
            !p.ends_mispredicted(),
            "steady-state prediction must be correct"
        );
    }

    #[test]
    fn banked_crosses_predicted_inter_block_branch() {
        // Branch in block 0x1000 (bank 0) to block 0x2010 (bank 1).
        let body = vec![
            alu(0x1000),
            br(0x1004, true, 0x2010),
            alu(0x2010),
            jmp(0x2014, 0x1000),
        ];
        let mut u = unit(SchemeKind::BankedSequential, cycle_trace(body, 6));
        let p = steady_packet(&mut u, 8);
        assert_eq!(p.len(), 4, "expected branch crossing, got {p:?}");
        assert!(u.stats().crossed_taken >= 1);
    }

    #[test]
    fn banked_bank_conflict_prevents_crossing() {
        // Target block 0x2000 has the same bank parity as 0x1000.
        // (jmp placed at 0x2008 to avoid aliasing the 0x1004 BTB slot.)
        let body = vec![
            alu(0x1000),
            br(0x1004, true, 0x2000),
            alu(0x2000),
            alu(0x2004),
            jmp(0x2008, 0x1000),
        ];
        let mut u = unit(SchemeKind::BankedSequential, cycle_trace(body, 6));
        let p = steady_packet(&mut u, 10);
        assert_eq!(
            p.len(),
            2,
            "bank conflict must stop delivery at the branch: {p:?}"
        );
        assert!(u.stats().bank_conflicts >= 1);
    }

    #[test]
    fn banked_cannot_align_intra_block_target() {
        // Forward branch within one block: banked stops, collapsing continues.
        let body = vec![
            alu(0x1000),
            br(0x1004, true, 0x100c),
            alu(0x100c),
            jmp(0x1010, 0x1000),
        ];
        let mut u = unit(SchemeKind::BankedSequential, cycle_trace(body.clone(), 6));
        let p = steady_packet(&mut u, 8);
        assert_eq!(p.len(), 2, "{p:?}");

        let mut c = unit(SchemeKind::CollapsingBuffer, cycle_trace(body, 6));
        let p = steady_packet(&mut c, 8);
        assert!(
            p.len() >= 3,
            "collapsing buffer must collapse the gap: {p:?}"
        );
        assert!(c.stats().collapsed >= 1);
    }

    #[test]
    fn collapsing_rejects_backward_intra_block_branch() {
        // Tight backward loop inside one block.
        let body = vec![alu(0x1000), br(0x1004, true, 0x1000)];
        let mut u = unit(SchemeKind::CollapsingBuffer, cycle_trace(body, 8));
        let p = steady_packet(&mut u, 6);
        assert_eq!(
            p.len(),
            2,
            "backward intra-block branches are unsupported: {p:?}"
        );
    }

    #[test]
    fn collapsing_handles_intra_then_inter_block() {
        // Collapse a forward hammock, then cross to the target block of a
        // second taken branch in the other bank.
        let body = vec![
            br(0x1000, true, 0x1008), // forward intra-block skip
            br(0x1008, true, 0x2010), // inter-block to bank 1
            alu(0x2010),
            jmp(0x2014, 0x1000),
        ];
        let mut u = unit(SchemeKind::CollapsingBuffer, cycle_trace(body, 8));
        let p = steady_packet(&mut u, 12);
        assert_eq!(p.len(), 4, "{p:?}");
        assert!(u.stats().collapsed >= 1);
        assert!(u.stats().crossed_taken >= 1);
    }

    #[test]
    fn perfect_ignores_alignment() {
        let body = vec![
            alu(0x1000),
            br(0x1004, true, 0x2010),
            alu(0x2010),
            jmp(0x2014, 0x1000),
        ];
        let mut u = unit(SchemeKind::Perfect, cycle_trace(body, 6));
        let p = steady_packet(&mut u, 8);
        assert_eq!(p.len(), 4, "{p:?}");
    }

    #[test]
    fn mispredict_stalls_until_resolved_plus_penalty() {
        let mut trace = vec![alu(0x1000), br(0x1004, true, 0x2000)];
        trace.extend(run(0x2000, 2));
        let mut u = unit(SchemeKind::Sequential, trace);
        // Cold I-cache miss at cycle 0; the block is filled.
        assert!(u.cycle(0, 0).is_empty());
        let p = u.cycle(10, 0);
        assert_eq!(p.len(), 2);
        assert!(
            p.ends_mispredicted(),
            "cold BTB must mispredict the first taken branch"
        );
        // Stalled until resolution...
        assert!(u.cycle(11, 0).is_empty());
        assert!(u.cycle(12, 0).is_empty());
        u.on_mispredict_resolved(15);
        // ...and for fetch_penalty cycles after it.
        assert!(u.cycle(15, 0).is_empty());
        assert!(u.cycle(16, 0).is_empty());
        // Cycle 17 would deliver, but the redirect target block cold-misses;
        // delivery happens after the miss penalty.
        assert!(u.cycle(17, 0).is_empty());
        let p = u.cycle(27, 0);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn icache_miss_stalls_then_delivers() {
        let mut u = unit(SchemeKind::Sequential, run(0x1000, 4));
        assert!(u.cycle(0, 0).is_empty());
        assert_eq!(u.stats().miss_stall_cycles, 1);
        for c in 1..10 {
            assert!(u.cycle(c, 0).is_empty(), "cycle {c} should still stall");
        }
        assert_eq!(u.cycle(10, 0).len(), 4);
    }

    #[test]
    fn spec_depth_blocks_fetch_past_branches() {
        let trace = vec![br(0x1000, false, 0x2000), alu(0x1004)];
        let mut u = unit(SchemeKind::Sequential, trace);
        // First touch cold-misses the cache.
        assert!(u.cycle(0, 0).is_empty());
        // unresolved = 3 > spec_depth 2: deliver nothing at all.
        let p = u.cycle(10, 3);
        assert!(p.is_empty());
        // unresolved = 2: the branch itself may be fetched, nothing beyond.
        let p = u.cycle(11, 2);
        assert_eq!(p.len(), 1);
        assert!(p.insts[0].inst.is_cond_branch());
    }

    #[test]
    fn correctly_predicted_taken_branch_has_no_bubble() {
        let body = vec![alu(0x1000), br(0x1004, true, 0x1000)];
        let mut u = unit(SchemeKind::Sequential, cycle_trace(body, 8));
        // Cold I-cache miss, then the first iteration mispredicts (cold BTB).
        assert!(u.cycle(0, 0).is_empty());
        let p = u.cycle(10, 0);
        assert!(p.ends_mispredicted());
        u.on_mispredict_resolved(10);
        // After warmup every cycle delivers 2 instructions back-to-back (the
        // correctly-predicted taken branch costs no bubble).
        let mut sizes = Vec::new();
        for c in 12..15 {
            sizes.push(u.cycle(c, 0).len());
        }
        assert_eq!(
            sizes,
            vec![2, 2, 2],
            "expected seamless taken-branch fetch: {sizes:?}"
        );
    }

    #[test]
    fn delivered_counts_match() {
        let mut u = unit(SchemeKind::Sequential, run(0x1000, 8));
        let _ = drain(&mut u);
        assert_eq!(u.delivered(), 8);
    }

    /// Drives an [`AlignedFetchUnit`] and a [`BlockFetchUnit`] over the same
    /// dynamic instruction sequence and asserts their packets, statistics,
    /// cache state, and BTB state stay identical, cycle by cycle.
    fn assert_units_match(scheme: SchemeKind, trace: Vec<DynInst>) {
        use fetchmech_isa::BlockStream;
        let machine = MachineModel::p14().with_ras(4);
        let stream = std::sync::Arc::new(BlockStream::from_insts(&trace));
        let mut oracle = AlignedFetchUnit::new(&machine, scheme, TraceCursor::new(trace));
        let mut fast = BlockFetchUnit::new(
            &machine,
            scheme,
            BlockCursor::new(std::sync::Arc::clone(&stream)),
        );
        let mut pkt = BlockPacket::default();
        let mut cycle = 0u64;
        while !oracle.done() {
            let p = oracle.cycle(cycle, 0);
            let outcome = fast.cycle_into(cycle, 0, &mut pkt);
            assert_eq!(p.len() as u32, pkt.len, "cycle {cycle}: packet size");
            assert_eq!(
                p.ends_mispredicted(),
                pkt.mispredicted,
                "cycle {cycle}: mispredict flag"
            );
            assert_eq!(outcome == FetchOutcome::Delivered, !p.is_empty());
            // The run-length spans must materialize to the oracle's packet.
            let insts: Vec<DynInst> = pkt
                .runs
                .iter()
                .flat_map(|&(tid, off, len)| {
                    stream.template(tid).insts()[off as usize..(off + len) as usize]
                        .iter()
                        .copied()
                })
                .collect();
            let oracle_insts: Vec<DynInst> = p.insts.iter().map(|f| f.inst).collect();
            assert_eq!(insts, oracle_insts, "cycle {cycle}: packet contents");
            if p.ends_mispredicted() {
                oracle.on_mispredict_resolved(cycle + 1);
                fast.on_mispredict_resolved(cycle + 1);
            }
            cycle += 1;
            assert!(cycle < 100_000, "runaway");
        }
        assert!(fast.done());
        assert_eq!(oracle.stats(), fast.stats());
        assert_eq!(oracle.delivered(), fast.delivered());
        assert_eq!(oracle.icache().stats(), fast.icache().stats());
        assert_eq!(oracle.btb().stats(), fast.btb().stats());
    }

    #[test]
    fn block_unit_matches_oracle_on_mixed_traces() {
        for scheme in SchemeKind::ALL {
            // A taken loop crossing blocks and banks, misaligned start.
            let body = vec![
                alu(0x1008),
                alu(0x100c),
                br(0x1010, true, 0x2010),
                alu(0x2010),
                jmp(0x2014, 0x1008),
            ];
            assert_units_match(scheme, cycle_trace(body, 24));
            // Straight-line code with nop padding.
            let mut t = run(0x1000, 7);
            t.push(DynInst::simple(
                Addr::new(0x101c),
                OpClass::Nop,
                None,
                [None, None],
            ));
            t.extend(run(0x1020, 5));
            assert_units_match(scheme, t);
            // Alternating conditional inside one block (mispredict-heavy).
            let alt: Vec<DynInst> = (0..64)
                .flat_map(|i| vec![alu(0x1000), br(0x1004, i % 3 == 0, 0x1000)])
                .collect();
            assert_units_match(scheme, alt);
        }
    }
}

#[cfg(test)]
mod predictor_tests {
    use super::*;
    use fetchmech_isa::DynCtrl;

    fn unit_with(predictor: PredictorKind, ras: u32, trace: Vec<DynInst>) -> AlignedFetchUnit {
        let machine = MachineModel {
            spec_depth: 8,
            ..MachineModel::p14().with_predictor(predictor).with_ras(ras)
        };
        AlignedFetchUnit::new(&machine, SchemeKind::Perfect, TraceCursor::new(trace))
    }

    fn br(addr: u64, taken: bool, target: u64) -> DynInst {
        DynInst {
            addr: Addr::new(addr),
            op: OpClass::CondBranch,
            dest: None,
            srcs: [None, None],
            next_pc: if taken {
                Addr::new(target)
            } else {
                Addr::new(addr + 4)
            },
            ctrl: Some(DynCtrl {
                taken,
                target: Addr::new(target),
                link: None,
            }),
        }
    }

    fn drain_stats(mut u: AlignedFetchUnit) -> FetchStats {
        let mut cycle = 0;
        while !u.done() {
            let p = u.cycle(cycle, 0);
            if p.ends_mispredicted() {
                u.on_mispredict_resolved(cycle);
            }
            cycle += 1;
            assert!(cycle < 200_000, "runaway");
        }
        *u.stats()
    }

    /// A strict alternation at one PC: 2-bit counters stay near 50% while a
    /// tournament learns it almost perfectly.
    #[test]
    fn tournament_beats_two_bit_in_the_fetch_unit() {
        let trace: Vec<DynInst> = (0..4000)
            .map(|i| br(0x1000, i % 2 == 0, 0x1000 + 64))
            .collect();
        let twobit = drain_stats(unit_with(PredictorKind::TwoBitBtb, 0, trace.clone()));
        let tourney = drain_stats(unit_with(PredictorKind::Tournament, 0, trace));
        assert!(
            tourney.cond_dir_mispredicts * 3 < twobit.cond_dir_mispredicts,
            "tournament {} vs 2-bit {} direction misses on an alternating branch",
            tourney.cond_dir_mispredicts,
            twobit.cond_dir_mispredicts
        );
    }

    fn call(addr: u64, target: u64, link: u64) -> DynInst {
        DynInst {
            addr: Addr::new(addr),
            op: OpClass::Call,
            dest: Some(fetchmech_isa::Reg::int(31)),
            srcs: [None, None],
            next_pc: Addr::new(target),
            ctrl: Some(DynCtrl {
                taken: true,
                target: Addr::new(target),
                link: Some(Addr::new(link)),
            }),
        }
    }

    fn ret(addr: u64, target: u64) -> DynInst {
        DynInst {
            addr: Addr::new(addr),
            op: OpClass::Return,
            dest: None,
            srcs: [Some(fetchmech_isa::Reg::int(31)), None],
            next_pc: Addr::new(target),
            ctrl: Some(DynCtrl {
                taken: true,
                target: Addr::new(target),
                link: None,
            }),
        }
    }

    /// Two call sites into one function: the BTB's single cached target
    /// mispredicts half the returns; a RAS predicts them all.
    #[test]
    fn ras_predicts_alternating_call_sites() {
        let mut trace = Vec::new();
        for _ in 0..200 {
            // Site A at 0x1000 and site B at 0x1100 both call 0x5000.
            // (0x1000 and 0x3000 would alias in a 1024-entry BTB and turn
            // the calls themselves into perpetual mispredicts.)
            trace.push(call(0x1000, 0x5000, 0x1004));
            trace.push(ret(0x5000, 0x1004));
            trace.push(call(0x1100, 0x5000, 0x1104));
            trace.push(ret(0x5000, 0x1104));
        }
        // Physically link the stream: ret -> next call sites.
        // (addresses above are already consistent: 0x1004/0x3004 are not
        // fetched as instructions because the next record's addr differs;
        // the fetch unit only checks geometry per packet, and Perfect has
        // none. For this test the prediction path is what matters.)
        let without = drain_stats(unit_with(PredictorKind::TwoBitBtb, 0, trace.clone()));
        let with = drain_stats(unit_with(PredictorKind::TwoBitBtb, 8, trace));
        assert!(with.ras_predictions > 0);
        assert_eq!(
            with.ras_correct, with.ras_predictions,
            "every return is RAS-predictable here"
        );
        assert!(
            with.mispredicts < without.mispredicts / 2,
            "RAS {} vs BTB-only {} mispredicts",
            with.mispredicts,
            without.mispredicts
        );
    }

    /// RAS overflow drops the oldest entry; deep call chains past the
    /// capacity mispredict only the overflowed frames.
    #[test]
    fn ras_overflow_drops_oldest() {
        let mut trace = Vec::new();
        // 4 nested calls with a 2-entry RAS; return in LIFO order.
        let depth = 4u64;
        for d in 0..depth {
            trace.push(call(
                0x1000 + d * 0x100,
                0x1000 + (d + 1) * 0x100,
                0x2000 + d * 0x100,
            ));
        }
        for d in (0..depth).rev() {
            trace.push(ret(0x5000 + d * 4, 0x2000 + d * 0x100));
        }
        let stats = drain_stats(unit_with(PredictorKind::TwoBitBtb, 2, trace));
        // Only the two youngest frames fit; exactly those two predict.
        assert_eq!(stats.ras_predictions, 2);
        assert_eq!(stats.ras_correct, 2);
    }
}
