//! The Tomasulo-style out-of-order execution core.
//!
//! Mirrors the paper's machine model: a scheduling window of generic
//! reservation stations with tag-based renaming, a set of fully-pipelined
//! functional units (result-bus count equals unit count, so completion is
//! never throttled), and a reorder buffer providing in-order retirement and
//! precise redirect. Data-cache misses are not modeled, as in the paper.
//!
//! Because wrong-path instructions are never fetched (see
//! [`crate::fetch`]), the core needs no flush logic: a mispredicted branch
//! simply stalls fetch until it executes, reproducing the paper's penalty
//! model (fetch redirect penalty + cycles until the branch resolves).

use std::collections::{HashSet, VecDeque};

use fetchmech_isa::{FuClass, OpClass};

use crate::fetch::FetchedInst;

/// Sizing of the out-of-order core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooConfig {
    /// Dispatch and retire width per cycle.
    pub issue_rate: u32,
    /// Scheduling-window (reservation-station) entries.
    pub window: u32,
    /// Reorder-buffer entries.
    pub rob: u32,
    /// Fixed-point units.
    pub fxu: u32,
    /// Floating-point units.
    pub fpu: u32,
    /// Branch units.
    pub branch_units: u32,
    /// Load/store units.
    pub mem_units: u32,
}

impl OooConfig {
    fn units(&self, class: FuClass) -> u32 {
        match class {
            FuClass::Fxu => self.fxu,
            FuClass::Fpu => self.fpu,
            FuClass::Branch => self.branch_units,
            FuClass::Mem => self.mem_units,
        }
    }
}

/// A control transfer that finished executing this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// The instruction's dispatch sequence number.
    pub seq: u64,
    /// Whether fetch had flagged it as mispredicted.
    pub mispredicted: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Dispatched, waiting in the window for operands and a unit.
    InWindow,
    /// Executing; completes at the stored cycle.
    Exec { done_at: u64 },
    /// Finished; awaiting in-order retirement.
    Done,
}

#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    op: OpClass,
    mispredicted: bool,
    deps: [Option<u64>; 2],
    state: State,
}

/// Aggregate core statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OooStats {
    /// Instructions retired.
    pub retired: u64,
    /// Instructions dispatched.
    pub dispatched: u64,
    /// Cycles in which the window was full at dispatch time.
    pub window_full_cycles: u64,
}

/// The out-of-order core. Drive it with, per cycle:
/// [`OooCore::begin_cycle`] (complete + retire), then [`OooCore::fire`],
/// then up to `issue_rate` [`OooCore::dispatch`] calls.
#[derive(Debug)]
pub struct OooCore {
    cfg: OooConfig,
    rob: VecDeque<Entry>,
    window_used: u32,
    last_writer: [Option<u64>; 64],
    next_seq: u64,
    unresolved_cond: u32,
    completed: HashSet<u64>,
    stats: OooStats,
}

impl OooCore {
    /// Creates an empty core.
    ///
    /// # Panics
    ///
    /// Panics if any sizing field is zero.
    #[must_use]
    pub fn new(cfg: OooConfig) -> Self {
        assert!(
            cfg.issue_rate > 0 && cfg.window > 0 && cfg.rob > 0,
            "zero-sized core"
        );
        assert!(
            cfg.fxu > 0 && cfg.fpu > 0 && cfg.branch_units > 0 && cfg.mem_units > 0,
            "every unit class needs at least one unit"
        );
        Self {
            cfg,
            rob: VecDeque::new(),
            window_used: 0,
            last_writer: [None; 64],
            next_seq: 0,
            unresolved_cond: 0,
            completed: HashSet::new(),
            stats: OooStats::default(),
        }
    }

    fn min_inflight_seq(&self) -> u64 {
        self.rob.front().map_or(self.next_seq, |e| e.seq)
    }

    /// Completes execution for instructions finishing at `cycle` and retires
    /// up to `issue_rate` completed instructions in order. Returns the
    /// control transfers that resolved this cycle.
    pub fn begin_cycle(&mut self, cycle: u64) -> Vec<Resolved> {
        let mut resolved = Vec::new();
        for e in &mut self.rob {
            if let State::Exec { done_at } = e.state {
                if done_at <= cycle {
                    e.state = State::Done;
                    self.completed.insert(e.seq);
                    // Halt redirects fetch to the restart point, so it
                    // resolves like a control transfer.
                    if e.op.is_control() || e.op == OpClass::Halt {
                        resolved.push(Resolved {
                            seq: e.seq,
                            mispredicted: e.mispredicted,
                        });
                    }
                    if e.op == OpClass::CondBranch {
                        self.unresolved_cond -= 1;
                    }
                }
            }
        }
        let mut retired = 0;
        while retired < self.cfg.issue_rate {
            match self.rob.front() {
                Some(e) if e.state == State::Done => {
                    let e = self.rob.pop_front().expect("front exists");
                    self.completed.remove(&e.seq);
                    self.stats.retired += 1;
                    retired += 1;
                }
                _ => break,
            }
        }
        resolved
    }

    /// Fires ready window entries into free functional units, oldest first.
    pub fn fire(&mut self, cycle: u64) {
        let mut avail = [
            self.cfg.units(FuClass::Fxu),
            self.cfg.units(FuClass::Fpu),
            self.cfg.units(FuClass::Branch),
            self.cfg.units(FuClass::Mem),
        ];
        // Readiness depends only on pre-cycle completion state, so gather
        // fire decisions against a snapshot of the dependence predicate.
        let min_seq = self.min_inflight_seq();
        let completed = &self.completed;
        let ready = |deps: &[Option<u64>; 2]| {
            deps.iter()
                .flatten()
                .all(|&d| d < min_seq || completed.contains(&d))
        };
        let mut fired = Vec::new();
        for (i, e) in self.rob.iter().enumerate() {
            if e.state == State::InWindow && ready(&e.deps) {
                let ci = class_index(e.op.fu_class());
                if avail[ci] > 0 {
                    avail[ci] -= 1;
                    fired.push(i);
                }
            }
        }
        for i in fired {
            let latency = u64::from(self.rob[i].op.latency());
            self.rob[i].state = State::Exec {
                done_at: cycle + latency,
            };
            self.window_used -= 1;
        }
    }

    /// Returns `true` if both a window slot and a ROB slot are free.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.window_used < self.cfg.window && (self.rob.len() as u32) < self.cfg.rob
    }

    /// Dispatches one fetched instruction, renaming its sources against the
    /// last-writer table. Returns the assigned sequence number.
    ///
    /// # Panics
    ///
    /// Panics if called while [`OooCore::can_accept`] is `false`.
    pub fn dispatch(&mut self, fetched: &FetchedInst) -> u64 {
        assert!(self.can_accept(), "dispatch into a full window/ROB");
        let seq = self.next_seq;
        self.next_seq += 1;
        let inst = &fetched.inst;
        let mut deps = [None, None];
        for (slot, src) in inst.srcs.iter().enumerate() {
            if let Some(reg) = src {
                deps[slot] = self.last_writer[reg.file_index()];
            }
        }
        if let Some(dest) = inst.dest {
            self.last_writer[dest.file_index()] = Some(seq);
        }
        if inst.op == OpClass::CondBranch {
            self.unresolved_cond += 1;
        }
        self.rob.push_back(Entry {
            seq,
            op: inst.op,
            mispredicted: fetched.mispredicted,
            deps,
            state: State::InWindow,
        });
        self.window_used += 1;
        self.stats.dispatched += 1;
        seq
    }

    /// Records that dispatch was blocked this cycle (for statistics).
    pub fn note_window_full(&mut self) {
        self.stats.window_full_cycles += 1;
    }

    /// Audits the core's internal bookkeeping against its ground truth — the
    /// reorder buffer contents — and returns a description of the first
    /// inconsistency found.
    ///
    /// This is the pipeline-side hook of the `fetchmech-sanitizer` layer:
    /// the cycle-level sanitizer (see the `fetchmech` core crate) calls it
    /// once per simulated cycle when sanitizing is enabled. It is `O(ROB)`
    /// and allocation-free on the success path, and it is *not* gated on a
    /// feature so callers decide when to pay for it.
    pub fn audit_invariants(&self) -> Result<(), String> {
        if self.rob.len() as u32 > self.cfg.rob {
            return Err(format!(
                "ROB holds {} entries, capacity {}",
                self.rob.len(),
                self.cfg.rob
            ));
        }
        if self.window_used > self.cfg.window {
            return Err(format!(
                "window_used {} exceeds window capacity {}",
                self.window_used, self.cfg.window
            ));
        }
        let in_window = self
            .rob
            .iter()
            .filter(|e| e.state == State::InWindow)
            .count() as u32;
        if in_window != self.window_used {
            return Err(format!(
                "window_used {} but {} ROB entries are InWindow",
                self.window_used, in_window
            ));
        }
        let done = self.rob.iter().filter(|e| e.state == State::Done).count();
        if done != self.completed.len() {
            return Err(format!(
                "{done} Done ROB entries but {} completion tags",
                self.completed.len()
            ));
        }
        let unresolved = self
            .rob
            .iter()
            .filter(|e| e.op == OpClass::CondBranch && e.state != State::Done)
            .count() as u32;
        if unresolved != self.unresolved_cond {
            return Err(format!(
                "unresolved_cond {} but {} unexecuted conditional branches in flight",
                self.unresolved_cond, unresolved
            ));
        }
        let mut prev: Option<u64> = None;
        for e in &self.rob {
            if e.state == State::Done && !self.completed.contains(&e.seq) {
                return Err(format!(
                    "Done entry seq {} missing its completion tag",
                    e.seq
                ));
            }
            if let Some(p) = prev {
                if e.seq <= p {
                    return Err(format!(
                        "ROB sequence numbers not strictly increasing ({p} then {})",
                        e.seq
                    ));
                }
            }
            prev = Some(e.seq);
        }
        if self.stats.dispatched != self.stats.retired + self.rob.len() as u64 {
            return Err(format!(
                "conservation: dispatched {} != retired {} + in-flight {}",
                self.stats.dispatched,
                self.stats.retired,
                self.rob.len()
            ));
        }
        Ok(())
    }

    /// Number of dispatched conditional branches not yet executed.
    #[must_use]
    pub fn unresolved_cond(&self) -> u32 {
        self.unresolved_cond
    }

    /// Returns `true` when no instructions remain in flight.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.rob.is_empty()
    }

    /// Returns core statistics.
    #[must_use]
    pub fn stats(&self) -> OooStats {
        self.stats
    }
}

/// Dense index of a functional-unit class: its place in per-class unit
/// counts.
fn class_index(class: FuClass) -> usize {
    match class {
        FuClass::Fxu => 0,
        FuClass::Fpu => 1,
        FuClass::Branch => 2,
        FuClass::Mem => 3,
    }
}

/// One cycle of [`StreamCore`]'s schedule: instructions of each unit class
/// that fire in it, and conditional branches that complete in it.
#[derive(Debug, Clone, Copy, Default)]
struct CycleSlot {
    fired: [u8; 4],
    cond_done: u8,
}

/// The out-of-order core of the block-stream fast path. It schedules each
/// instruction once, when it dispatches.
///
/// Timing-identical to [`OooCore`], cycle for cycle (the lockstep test below
/// and the differential-oracle tests in the core crate enforce it). With
/// fully pipelined units and oldest-first selection, no younger instruction
/// can change an older one's timing, so the schedule follows from age order
/// alone (list scheduling):
///
/// * an instruction dispatched at cycle `d` fires at the first cycle
///   `t ≥ max(d + 1, completion of its sources)` in which fewer than
///   `units` older instructions of its class fire, and completes at
///   `t + latency`;
/// * it retires at the later of its completion and the previous
///   instruction's retire cycle, one cycle later when that cycle already
///   retires `issue_rate` instructions.
///
/// What the simulator loop asks between dispatches (window and ROB room,
/// in-flight conditional branches, drain) follows from a ring of per-cycle
/// counts and a FIFO of retire cycles. [`advance_to`](Self::advance_to)
/// folds the ring lazily, so the loop may jump over cycles in which fetch
/// has nothing to do.
///
/// **Ring bound.** At the end of any cycle `c`, the oldest instruction that
/// has not fired has every producer fired (producers are older), so its
/// sources complete by `c + 2` (the longest latency is 2), and no older
/// instruction competes for a unit after `c`: it fires by `c + 2`. Dispatch
/// needs a free window slot, so an instruction dispatched at `d` has at most
/// `window − 1` older instructions not yet fired at the end of `d`. The
/// `k`-th oldest of them fires by `d + 2k`, so the instruction fires by
/// `d + 2·window` and completes by `d + 2·window + 2`. The ring holds more
/// than `2·window + 2` cycles, and [`dispatch`](Self::dispatch) asserts
/// that no schedule reaches past it.
#[derive(Debug)]
pub struct StreamCore {
    cfg: OooConfig,
    /// Functional units per class, by [`class_index`].
    units: [u8; 4],
    /// The current cycle: the ring is folded through it.
    now: u64,
    /// Slot `c & ring_mask` holds cycle `c`, for `now < c ≤ now + ring_mask`.
    ring: Box<[CycleSlot]>,
    ring_mask: u64,
    /// Completion cycle of each register's last writer (0: none).
    reg_done: [u64; 64],
    /// Retire cycles of the instructions in the ROB, oldest first.
    retire_at: VecDeque<u64>,
    /// Retire cycle of the youngest instruction, and how many retire then.
    last_retire: u64,
    last_retire_count: u32,
    /// Dispatched instructions that have not fired by `now`.
    in_window: u32,
    /// Dispatched conditional branches that have not completed by `now`.
    unresolved_cond: u32,
    dispatched: u64,
}

impl StreamCore {
    /// Creates an empty core at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if any sizing field is zero or a class has more than 255
    /// units.
    #[must_use]
    pub fn new(cfg: OooConfig) -> Self {
        assert!(
            cfg.issue_rate > 0 && cfg.window > 0 && cfg.rob > 0,
            "zero-sized core"
        );
        let units = [cfg.fxu, cfg.fpu, cfg.branch_units, cfg.mem_units]
            .map(|n| u8::try_from(n).expect("at most 255 units per class"));
        assert!(
            units.iter().all(|&n| n > 0),
            "every unit class needs at least one unit"
        );
        let slots = (2 * cfg.window as usize + 3).next_power_of_two();
        Self {
            cfg,
            units,
            now: 0,
            ring: vec![CycleSlot::default(); slots].into_boxed_slice(),
            ring_mask: slots as u64 - 1,
            reg_done: [0; 64],
            retire_at: VecDeque::with_capacity(cfg.rob as usize),
            last_retire: 0,
            last_retire_count: 0,
            in_window: 0,
            unresolved_cond: 0,
            dispatched: 0,
        }
    }

    /// Moves the core to `cycle`: everything scheduled to fire, complete or
    /// retire by the end of `cycle` has done so.
    #[inline]
    pub fn advance_to(&mut self, cycle: u64) {
        debug_assert!(cycle >= self.now, "the core cannot go back in time");
        // Nothing is scheduled past one ring of cycles ahead.
        for c in self.now + 1..=cycle.min(self.now + self.ring_mask) {
            let slot = std::mem::take(&mut self.ring[(c & self.ring_mask) as usize]);
            self.in_window -= slot.fired.iter().map(|&n| u32::from(n)).sum::<u32>();
            self.unresolved_cond -= u32::from(slot.cond_done);
        }
        self.now = cycle;
        while self.retire_at.front().is_some_and(|&r| r <= cycle) {
            self.retire_at.pop_front();
        }
    }

    /// Returns `true` if both a window slot and a ROB slot are free.
    #[must_use]
    #[inline]
    pub fn can_accept(&self) -> bool {
        self.in_window < self.cfg.window && (self.retire_at.len() as u32) < self.cfg.rob
    }

    /// Dispatches one instruction at the current cycle and schedules it.
    /// Returns the cycle in which it completes (a control transfer resolves
    /// then).
    ///
    /// # Panics
    ///
    /// Panics if called while [`can_accept`](Self::can_accept) is `false`,
    /// or if the schedule reaches past the ring (see the ring bound above).
    #[inline]
    pub fn dispatch(
        &mut self,
        op: OpClass,
        dest: Option<fetchmech_isa::Reg>,
        srcs: [Option<fetchmech_isa::Reg>; 2],
    ) -> u64 {
        assert!(self.can_accept(), "dispatch into a full window/ROB");
        let class = class_index(op.fu_class());
        let mut fire = self.now + 1;
        for src in srcs.into_iter().flatten() {
            fire = fire.max(self.reg_done[src.file_index()]);
        }
        while self.ring[(fire & self.ring_mask) as usize].fired[class] == self.units[class] {
            fire += 1;
        }
        let done = fire + u64::from(op.latency());
        assert!(
            done - self.now <= self.ring_mask,
            "schedule ring overrun: completion {done} at cycle {}",
            self.now
        );
        self.ring[(fire & self.ring_mask) as usize].fired[class] += 1;
        if op == OpClass::CondBranch {
            self.ring[(done & self.ring_mask) as usize].cond_done += 1;
            self.unresolved_cond += 1;
        }
        if let Some(dest) = dest {
            self.reg_done[dest.file_index()] = done;
        }
        if done > self.last_retire {
            self.last_retire = done;
            self.last_retire_count = 0;
        } else if self.last_retire_count == self.cfg.issue_rate {
            self.last_retire += 1;
            self.last_retire_count = 0;
        }
        self.last_retire_count += 1;
        self.retire_at.push_back(self.last_retire);
        self.in_window += 1;
        self.dispatched += 1;
        done
    }

    /// Number of dispatched conditional branches not yet executed.
    #[must_use]
    #[inline]
    pub fn unresolved_cond(&self) -> u32 {
        self.unresolved_cond
    }

    /// Instructions retired by the end of the current cycle.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.dispatched - self.retire_at.len() as u64
    }

    /// Returns `true` when no instructions remain in flight.
    #[must_use]
    pub fn drained(&self) -> bool {
        self.retire_at.is_empty()
    }

    /// The cycle in which the youngest dispatched instruction retires (0
    /// before any dispatch): the core is drained at the end of it.
    #[must_use]
    pub fn last_retire(&self) -> u64 {
        self.last_retire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_isa::{Addr, DynCtrl, DynInst, Reg};

    fn cfg() -> OooConfig {
        OooConfig {
            issue_rate: 4,
            window: 16,
            rob: 32,
            fxu: 2,
            fpu: 2,
            branch_units: 2,
            mem_units: 2,
        }
    }

    fn alu(dest: Option<Reg>, srcs: [Option<Reg>; 2]) -> FetchedInst {
        FetchedInst {
            inst: DynInst::simple(Addr::new(0x1000), OpClass::IntAlu, dest, srcs),
            mispredicted: false,
        }
    }

    fn fp(dest: Option<Reg>, srcs: [Option<Reg>; 2]) -> FetchedInst {
        FetchedInst {
            inst: DynInst::simple(Addr::new(0x1000), OpClass::FpAdd, dest, srcs),
            mispredicted: false,
        }
    }

    fn branch(mispredicted: bool) -> FetchedInst {
        FetchedInst {
            inst: DynInst {
                addr: Addr::new(0x1000),
                op: OpClass::CondBranch,
                dest: None,
                srcs: [None, None],
                next_pc: Addr::new(0x1004),
                ctrl: Some(DynCtrl {
                    taken: false,
                    target: Addr::new(0x2000),
                    link: None,
                }),
            },
            mispredicted,
        }
    }

    /// Runs the core until drained, dispatching `insts` as space allows.
    /// Returns total cycles.
    fn run_to_drain(core: &mut OooCore, insts: &[FetchedInst]) -> u64 {
        let mut cycle = 0u64;
        let mut next = 0;
        loop {
            core.begin_cycle(cycle);
            core.fire(cycle);
            let mut dispatched = 0;
            while next < insts.len() && dispatched < core.cfg.issue_rate && core.can_accept() {
                core.dispatch(&insts[next]);
                next += 1;
                dispatched += 1;
            }
            core.audit_invariants().expect("core invariants hold");
            cycle += 1;
            if next == insts.len() && core.drained() {
                break;
            }
            assert!(cycle < 10_000, "runaway test");
        }
        cycle
    }

    #[test]
    fn independent_alus_bounded_by_fxu_count() {
        // 2 FXUs, 40 independent ALU ops: steady state fires 2/cycle.
        let mut core = OooCore::new(cfg());
        let insts: Vec<_> = (0..40).map(|_| alu(None, [None, None])).collect();
        let cycles = run_to_drain(&mut core, &insts);
        assert_eq!(core.stats().retired, 40);
        let ipc = 40.0 / cycles as f64;
        assert!(ipc > 1.5 && ipc <= 2.0, "ipc = {ipc}");
    }

    #[test]
    fn dependence_chain_serializes() {
        // r1 <- r1 chain: one per cycle regardless of unit count.
        let mut core = OooCore::new(cfg());
        let r = Reg::int(1);
        let insts: Vec<_> = (0..20).map(|_| alu(Some(r), [Some(r), None])).collect();
        let cycles = run_to_drain(&mut core, &insts);
        assert!(
            cycles >= 20,
            "chain of 20 must take >= 20 cycles, took {cycles}"
        );
    }

    #[test]
    fn fp_chain_pays_two_cycle_latency() {
        let mut core = OooCore::new(cfg());
        let f = Reg::fp(1);
        let insts: Vec<_> = (0..10).map(|_| fp(Some(f), [Some(f), None])).collect();
        let cycles = run_to_drain(&mut core, &insts);
        assert!(
            cycles >= 20,
            "10 dependent 2-cycle ops must take >= 20 cycles, took {cycles}"
        );
    }

    #[test]
    fn independent_mixed_ops_use_parallel_units() {
        // 2 FXU + 2 FPU + 2 MEM: 6 independent ops per cycle possible, but
        // retire width 4 caps IPC at 4.
        let mut core = OooCore::new(cfg());
        let mut insts = Vec::new();
        for _ in 0..10 {
            insts.push(alu(None, [None, None]));
            insts.push(alu(None, [None, None]));
            insts.push(fp(None, [None, None]));
            insts.push(fp(None, [None, None]));
        }
        let cycles = run_to_drain(&mut core, &insts);
        let ipc = 40.0 / cycles as f64;
        assert!(ipc > 3.0 && ipc <= 4.0, "ipc = {ipc}");
    }

    #[test]
    fn resolution_event_carries_mispredict_flag() {
        let mut core = OooCore::new(cfg());
        core.begin_cycle(0);
        core.fire(0);
        core.dispatch(&branch(true));
        // Cycle 1: branch fires (latency 1 -> done at 2).
        core.begin_cycle(1);
        core.fire(1);
        assert_eq!(core.unresolved_cond(), 1);
        // Cycle 2: resolution event.
        let resolved = core.begin_cycle(2);
        assert_eq!(resolved.len(), 1);
        assert!(resolved[0].mispredicted);
        assert_eq!(core.unresolved_cond(), 0);
    }

    #[test]
    fn retirement_is_in_order() {
        // An FP op (2-cycle) followed by an ALU op (1-cycle): the ALU op
        // finishes first but must not retire before the FP op.
        let mut core = OooCore::new(cfg());
        core.begin_cycle(0);
        core.fire(0);
        let fp_seq = core.dispatch(&fp(Some(Reg::fp(1)), [None, None]));
        let alu_seq = core.dispatch(&alu(Some(Reg::int(1)), [None, None]));
        assert!(fp_seq < alu_seq);
        core.begin_cycle(1);
        core.fire(1); // both fire: fp done at 3, alu done at 2
        core.begin_cycle(2); // alu done, fp not: nothing retires
        assert_eq!(core.stats().retired, 0);
        core.fire(2);
        core.begin_cycle(3); // fp done: both retire
        assert_eq!(core.stats().retired, 2);
        assert!(core.drained());
    }

    #[test]
    fn window_capacity_blocks_dispatch() {
        let small = OooConfig {
            issue_rate: 4,
            window: 2,
            rob: 32,
            fxu: 1,
            fpu: 1,
            branch_units: 1,
            mem_units: 1,
        };
        let mut core = OooCore::new(small);
        // Two instructions waiting on a never-completing producer? Not
        // possible here — instead fill the window with dependent ops that
        // cannot fire yet.
        let r = Reg::int(1);
        core.begin_cycle(0);
        core.fire(0);
        core.dispatch(&alu(Some(r), [Some(r), None]));
        core.dispatch(&alu(Some(r), [Some(r), None]));
        assert!(!core.can_accept(), "window of 2 must be full");
    }

    #[test]
    fn rob_capacity_blocks_dispatch() {
        let tiny = OooConfig {
            issue_rate: 4,
            window: 16,
            rob: 3,
            fxu: 2,
            fpu: 2,
            branch_units: 2,
            mem_units: 2,
        };
        let mut core = OooCore::new(tiny);
        core.begin_cycle(0);
        core.fire(0);
        for _ in 0..3 {
            assert!(core.can_accept());
            core.dispatch(&alu(None, [None, None]));
        }
        assert!(!core.can_accept(), "ROB of 3 must be full");
    }

    #[test]
    fn dep_on_retired_producer_is_satisfied() {
        let mut core = OooCore::new(cfg());
        let r = Reg::int(1);
        core.begin_cycle(0);
        core.fire(0);
        core.dispatch(&alu(Some(r), [None, None]));
        // Let the producer execute and retire fully.
        for c in 1..5 {
            core.begin_cycle(c);
            core.fire(c);
        }
        assert!(core.drained());
        // A consumer dispatched later must still fire.
        core.dispatch(&alu(None, [Some(r), None]));
        core.begin_cycle(5);
        core.fire(5);
        let resolved = core.begin_cycle(6);
        assert!(resolved.is_empty());
        assert!(core.drained());
        assert_eq!(core.stats().retired, 2);
    }

    /// A random core shape: issue 1–12, window 1–80, ROB from the window
    /// to twice it (past 64, so the ready bitsets span several words), and
    /// 1–4 units per class, drawn independently.
    fn random_config(rng: &mut fetchmech_isa::rng::Pcg64) -> OooConfig {
        let window = rng.range_u64(1, 81) as u32;
        let mut units = || rng.range_u64(1, 5) as u32;
        let (fxu, fpu, branch_units, mem_units) = (units(), units(), units(), units());
        OooConfig {
            issue_rate: rng.range_u64(1, 13) as u32,
            window,
            rob: rng.range_u64(u64::from(window), 2 * u64::from(window) + 1) as u32,
            fxu,
            fpu,
            branch_units,
            mem_units,
        }
    }

    /// A random instruction over a few integer and FP registers; one control
    /// transfer in three is flagged as mispredicted.
    fn random_inst(rng: &mut fetchmech_isa::rng::Pcg64) -> FetchedInst {
        let r = rng.next_u64();
        let op = match r % 10 {
            0 | 1 => OpClass::IntAlu,
            2 => OpClass::IntMul,
            3 => OpClass::FpAdd,
            4 => OpClass::FpMul,
            5 => OpClass::Load,
            6 => OpClass::Store,
            7 => OpClass::CondBranch,
            8 => OpClass::Jump,
            _ => OpClass::Call,
        };
        let reg = |bits: u64| {
            if bits & 8 == 0 {
                Reg::int((bits % 8) as u8)
            } else {
                Reg::fp((bits % 4) as u8)
            }
        };
        let dest = (!(r >> 8).is_multiple_of(3)).then(|| reg(r >> 12));
        let src = |shift: u32| {
            (r >> shift)
                .is_multiple_of(2)
                .then(|| reg(r >> (shift + 1)))
        };
        let ctrl = op.is_control().then_some(DynCtrl {
            taken: (r >> 40).is_multiple_of(2),
            target: Addr::new(0x2000),
            link: None,
        });
        FetchedInst {
            inst: DynInst {
                addr: Addr::new(0x1000),
                op,
                dest,
                srcs: [src(24), src(32)],
                next_pc: Addr::new(0x1004),
                ctrl,
            },
            mispredicted: op.is_control() && (r >> 48).is_multiple_of(3),
        }
    }

    #[test]
    fn stream_core_matches_ooo_core_in_lockstep() {
        // Drive OooCore and StreamCore with an identical per-cycle policy
        // over random core shapes and instruction mixes, and demand
        // cycle-exact agreement on every observable — including the cycle
        // on which each watched mispredicted transfer resolves.
        let mut rng = fetchmech_isa::rng::Pcg64::new(0x5eed_cafe);
        for trial in 0..300 {
            let cfg = random_config(&mut rng);
            let n = rng.range_usize(50, 300);
            let insts: Vec<FetchedInst> = (0..n).map(|_| random_inst(&mut rng)).collect();

            let mut a = OooCore::new(cfg);
            let mut b = StreamCore::new(cfg);
            // Completion cycle StreamCore scheduled for each sequence number.
            let mut done_at = Vec::with_capacity(n);
            // Dispatched mispredicted transfers not yet resolved, oldest
            // first; the oldest is the watched one, as in the simulator
            // loop.
            let mut unresolved = std::collections::VecDeque::new();
            let mut watched_resolutions = 0;
            let mut next = 0;
            let mut cycle = 0u64;
            loop {
                let resolved = a.begin_cycle(cycle);
                b.advance_to(cycle);
                let watched = unresolved.front().copied();
                for r in &resolved {
                    assert_eq!(
                        done_at[r.seq as usize], cycle,
                        "trial {trial} {cfg:?}: seq {} resolved off its scheduled cycle",
                        r.seq
                    );
                    if Some(r.seq) == watched {
                        assert!(r.mispredicted);
                        watched_resolutions += 1;
                    }
                }
                unresolved.retain(|&s| !resolved.iter().any(|r| r.seq == s));
                assert_eq!(
                    a.stats().retired,
                    b.retired(),
                    "trial {trial} {cfg:?} cycle {cycle}: retired"
                );
                a.fire(cycle);
                let mut dispatched = 0;
                while next < insts.len() && dispatched < cfg.issue_rate && a.can_accept() {
                    assert!(
                        b.can_accept(),
                        "trial {trial} {cfg:?} cycle {cycle}: accept mismatch"
                    );
                    let f = &insts[next];
                    let seq = a.dispatch(f);
                    assert_eq!(seq, done_at.len() as u64);
                    let i = &f.inst;
                    done_at.push(b.dispatch(i.op, i.dest, i.srcs));
                    if f.mispredicted {
                        unresolved.push_back(seq);
                    }
                    next += 1;
                    dispatched += 1;
                }
                assert_eq!(
                    a.can_accept(),
                    b.can_accept(),
                    "trial {trial} {cfg:?} cycle {cycle}"
                );
                assert_eq!(
                    a.unresolved_cond(),
                    b.unresolved_cond(),
                    "trial {trial} {cfg:?} cycle {cycle}"
                );
                assert_eq!(a.drained(), b.drained(), "trial {trial} cycle {cycle}");
                a.audit_invariants().expect("oracle invariants");
                cycle += 1;
                if next == insts.len() && a.drained() {
                    break;
                }
                assert!(cycle < 100_000, "runaway trial {trial}");
            }
            assert!(
                unresolved.is_empty(),
                "trial {trial}: unresolved mispredicts"
            );
            assert!(
                watched_resolutions > 0 || !insts.iter().any(|f| f.mispredicted),
                "trial {trial}: no watched resolution was checked"
            );
            assert_eq!(a.stats().retired, n as u64, "trial {trial}");
            assert_eq!(b.retired(), n as u64, "trial {trial}");
            assert_eq!(b.last_retire(), cycle - 1, "trial {trial}: drain cycle");
        }
    }

    fn one_unit_per_class(issue_rate: u32, window: u32, rob: u32) -> OooConfig {
        OooConfig {
            issue_rate,
            window,
            rob,
            fxu: 1,
            fpu: 1,
            branch_units: 1,
            mem_units: 1,
        }
    }

    #[test]
    fn stream_core_one_unit_class_fires_one_per_cycle_oldest_first() {
        let mut core = StreamCore::new(one_unit_per_class(8, 16, 32));
        core.advance_to(0);
        // Four independent ALU ops share the one FXU in age order; an FP op
        // dispatched among them has its own unit and fires at once.
        let alu = |core: &mut StreamCore| core.dispatch(OpClass::IntAlu, None, [None, None]);
        let first = [alu(&mut core), alu(&mut core)];
        let fp = core.dispatch(OpClass::FpAdd, None, [None, None]);
        let rest = [alu(&mut core), alu(&mut core)];
        assert_eq!([first[0], first[1], rest[0], rest[1]], [2, 3, 4, 5]);
        assert_eq!(fp, 3, "FP op fires in cycle 1, latency 2");
        // An op dispatched later fires after every older op of its class.
        core.advance_to(1);
        assert_eq!(alu(&mut core), 6);
    }

    #[test]
    fn stream_core_schedule_stays_within_the_ring_bound() {
        // The extreme: a serial chain of 2-cycle FP ops on one FPU behind a
        // full 80-entry window, so each op waits for every older one.
        let window = 80;
        let mut core = StreamCore::new(one_unit_per_class(12, window, 200));
        let f = Reg::fp(1);
        let mut max_lookahead = 0;
        let mut dispatched = 0;
        let mut cycle = 0;
        while dispatched < 2_000 {
            core.advance_to(cycle);
            while core.can_accept() {
                let done = core.dispatch(OpClass::FpAdd, Some(f), [Some(f), None]);
                max_lookahead = max_lookahead.max(done - cycle);
                dispatched += 1;
            }
            cycle += 1;
        }
        let bound = 2 * u64::from(window) + 2;
        assert!(
            max_lookahead <= bound,
            "lookahead {max_lookahead} > {bound}"
        );
        assert!(
            max_lookahead >= bound - 2,
            "the chain should come near the bound, reached {max_lookahead}"
        );
    }

    #[test]
    #[should_panic(expected = "full")]
    fn stream_core_dispatch_into_full_rob_panics() {
        let mut core = StreamCore::new(one_unit_per_class(1, 1, 1));
        core.dispatch(OpClass::IntAlu, None, [None, None]);
        core.dispatch(OpClass::IntAlu, None, [None, None]);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn dispatch_into_full_rob_panics() {
        let tiny = OooConfig {
            issue_rate: 1,
            window: 1,
            rob: 1,
            fxu: 1,
            fpu: 1,
            branch_units: 1,
            mem_units: 1,
        };
        let mut core = OooCore::new(tiny);
        let r = Reg::int(1);
        core.dispatch(&alu(Some(r), [Some(r), None]));
        core.dispatch(&alu(None, [None, None]));
    }
}
