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
        let class_idx = |c: FuClass| match c {
            FuClass::Fxu => 0,
            FuClass::Fpu => 1,
            FuClass::Branch => 2,
            FuClass::Mem => 3,
        };
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
                let ci = class_idx(e.op.fu_class());
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

/// Sequence-number sentinel for "no dependence" in [`StreamCore`].
const SEQ_NONE: u64 = u64::MAX;

/// End-of-list sentinel for [`StreamCore`]'s waiter links.
const LINK_NONE: u32 = u32::MAX;

/// Dense index of a functional-unit class: the row of its ready bitset.
fn class_index(class: FuClass) -> usize {
    match class {
        FuClass::Fxu => 0,
        FuClass::Fpu => 1,
        FuClass::Branch => 2,
        FuClass::Mem => 3,
    }
}

/// Sets or clears the bits of `mask` in `word`.
#[inline]
fn assign_bits(word: &mut u64, mask: u64, on: bool) {
    *word = (*word & !mask) | (mask * u64::from(on));
}

/// One ROB ring slot of [`StreamCore`]. Its timing facts (unit class,
/// latency, conditional branch) are decoded once at dispatch; the latency
/// and the conditional flag live in the core's slot bitsets.
#[derive(Debug, Clone, Copy)]
struct SEntry {
    /// [`class_index`] of the op's functional unit.
    class: u8,
    mispredicted: bool,
    /// Producers this entry still waits on (0–2); it is ready once this
    /// reaches 0.
    waiting: u8,
    /// Head of the list of consumer links waiting on this entry to complete
    /// (`LINK_NONE` = none). A link is `slot << 1 | source`, so an entry
    /// waiting on two producers sits on two lists at once.
    waiter_head: u32,
    /// Next link after this entry's own link, per source.
    next_waiter: [u32; 2],
}

impl SEntry {
    /// Filler for unoccupied ring slots.
    const IDLE: Self = Self {
        class: 0,
        mispredicted: false,
        waiting: 0,
        waiter_head: LINK_NONE,
        next_waiter: [LINK_NONE; 2],
    };
}

/// The allocation-light out-of-order core of the block-stream fast path.
///
/// Cycle-for-cycle timing-identical to [`OooCore`] (the differential-oracle
/// grid test in the core crate enforces whole-`SimResult` equality), but
/// engineered for the hot loop:
///
/// * the ROB is a power-of-two ring indexed by `seq & mask` — no deque
///   arithmetic and no per-entry allocation or destruction. Each op is
///   decoded once at dispatch; per-slot facts the cycle phases need
///   (completed, 2-cycle latency, conditional branch, has waiters) are
///   bitsets over ring slots, so they are read a word at a time;
/// * wakeup is counted: an entry records how many producers it still waits
///   on and hangs one link per outstanding source on that producer's waiter
///   list. A completion decrements each waiter's count once, and the count
///   reaching zero makes it ready — each dependence edge costs O(1) in total;
/// * ready entries are one bitset per functional-unit class.
///   [`fire`](Self::fire) takes a whole class when its units suffice, and
///   otherwise its oldest `units` bits counting from the ROB head. Unit
///   classes never compete, so this fires the same set as an oldest-first
///   walk over every ready entry. It reports whether a ready entry was
///   *starved* of a unit, which is what lets the simulator loop skip
///   provably-idle cycles;
/// * completions are event-driven: fired slots are OR-ed into a ring of
///   four `done_at` bitsets (maximum latency is 2 cycles) instead of an
///   every-cycle ROB scan;
/// * [`next_completion`](Self::next_completion) and
///   [`front_retirable`](Self::front_retirable) expose the information the
///   skip logic needs to stay exact (retirement of a completed backlog
///   proceeds on cycles with no completions, so skips must not jump it).
#[derive(Debug)]
pub struct StreamCore {
    cfg: OooConfig,
    /// Functional units per class, by [`class_index`].
    units: [u32; 4],
    /// Oldest in-flight sequence number; live slots are
    /// `front_seq..next_seq`.
    front_seq: u64,
    next_seq: u64,
    /// Ring of in-flight entries, indexed by `seq & rob_mask`; at least 64
    /// slots, so every bitset word lies wholly inside the ring.
    rob: Box<[SEntry]>,
    rob_mask: u64,
    /// `u64` words per slot bitset.
    words: usize,
    /// `InWindow` entries whose producers have all completed: one bitset
    /// per class, row `class`. Entries still waiting on a producer are on
    /// its waiter list instead.
    ready: Box<[u64]>,
    /// Set bits in each class's ready bitset.
    ready_count: [u32; 4],
    /// Slots that completed execution.
    done: Box<[u64]>,
    /// Slots whose op has a 2-cycle latency (the rest take 1).
    slow: Box<[u64]>,
    /// Slots holding a conditional branch.
    cond: Box<[u64]>,
    /// Slots with a non-empty waiter list.
    waited: Box<[u64]>,
    /// Slots fired this cycle (scratch for [`fire`](Self::fire)).
    fired: Box<[u64]>,
    /// Completion events: row `done_at & 3` holds the slots completing at
    /// `bucket_at[row]`, and `bucket_live[row]` says the row is non-empty.
    /// Pending `done_at`s always lie within 2 cycles, so a ring of 4 is
    /// unambiguous.
    completing: Box<[u64]>,
    bucket_at: [u64; 4],
    bucket_live: [bool; 4],
    /// Count of `InWindow` entries (ready or waiting).
    in_window: u32,
    last_writer: [u64; 64],
    unresolved_cond: u32,
    stats: OooStats,
}

impl StreamCore {
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
        let slots = (cfg.rob as usize).next_power_of_two().max(64);
        let words = slots / 64;
        let bitset = |rows: usize| vec![0; rows * words].into_boxed_slice();
        Self {
            cfg,
            units: [cfg.fxu, cfg.fpu, cfg.branch_units, cfg.mem_units],
            front_seq: 0,
            next_seq: 0,
            rob: vec![SEntry::IDLE; slots].into_boxed_slice(),
            rob_mask: slots as u64 - 1,
            words,
            ready: bitset(4),
            ready_count: [0; 4],
            done: bitset(1),
            slow: bitset(1),
            cond: bitset(1),
            waited: bitset(1),
            fired: bitset(1),
            completing: bitset(4),
            bucket_at: [0; 4],
            bucket_live: [false; 4],
            in_window: 0,
            last_writer: [SEQ_NONE; 64],
            unresolved_cond: 0,
            stats: OooStats::default(),
        }
    }

    /// Ring slot of sequence number `seq`.
    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.rob_mask) as usize
    }

    /// Whether `slot`'s bit is set in the one-row bitset `bits`.
    #[inline]
    fn bit(bits: &[u64], slot: usize) -> bool {
        (bits[slot / 64] >> (slot % 64)) & 1 == 1
    }

    /// Marks ring slot `slot` ready in its class's bitset.
    #[inline]
    fn set_ready(&mut self, slot: usize) {
        let class = usize::from(self.rob[slot].class);
        self.ready_count[class] += 1;
        self.ready[class * self.words + slot / 64] |= 1 << (slot % 64);
    }

    /// Completes instructions finishing at `cycle`, then retires up to
    /// `issue_rate` completed instructions in order. Returns `true` if the
    /// `watched` sequence number (the pending mispredicted control transfer)
    /// resolved this cycle.
    pub fn begin_cycle(&mut self, cycle: u64, watched: Option<u64>) -> bool {
        let mut watched_resolved = false;
        let b = (cycle & 3) as usize;
        if self.bucket_live[b] {
            debug_assert_eq!(
                self.bucket_at[b], cycle,
                "completion event missed its cycle"
            );
            self.bucket_live[b] = false;
            // The watched entry is in flight, so its ring slot names it.
            let watched = watched.map(|seq| self.slot(seq));
            for w in 0..self.words {
                let completed = std::mem::take(&mut self.completing[b * self.words + w]);
                if completed == 0 {
                    continue;
                }
                debug_assert_eq!(completed & self.done[w], 0, "completed twice");
                self.done[w] |= completed;
                self.unresolved_cond -= (completed & self.cond[w]).count_ones();
                if let Some(ws) = watched {
                    if ws / 64 == w && (completed >> (ws % 64)) & 1 == 1 {
                        debug_assert!(self.rob[ws].mispredicted);
                        watched_resolved = true;
                    }
                }
                // Each link is one (consumer, source) edge on a completed
                // producer: count it off, and the consumer is ready when
                // none is left.
                let mut producers = completed & self.waited[w];
                self.waited[w] &= !completed;
                while producers != 0 {
                    let slot = w * 64 + producers.trailing_zeros() as usize;
                    producers &= producers - 1;
                    let mut link = std::mem::replace(&mut self.rob[slot].waiter_head, LINK_NONE);
                    while link != LINK_NONE {
                        let consumer = (link >> 1) as usize;
                        let e = &mut self.rob[consumer];
                        link = e.next_waiter[(link & 1) as usize];
                        e.waiting -= 1;
                        if e.waiting == 0 {
                            self.set_ready(consumer);
                        }
                    }
                }
            }
        }
        let mut retired = 0;
        while retired < self.cfg.issue_rate
            && self.front_seq < self.next_seq
            && Self::bit(&self.done, self.slot(self.front_seq))
        {
            self.front_seq += 1;
            retired += 1;
        }
        self.stats.retired += u64::from(retired);
        watched_resolved
    }

    /// Returns `true` if `d` no longer gates issue: no dependence, already
    /// retired, or completed in the ROB.
    #[inline]
    fn dep_done(&self, d: u64) -> bool {
        d == SEQ_NONE || d < self.front_seq || Self::bit(&self.done, self.slot(d))
    }

    /// Fires ready window entries into free functional units, oldest first.
    /// Returns `true` if a ready entry could not fire for lack of a unit —
    /// such an entry fires on the next cycle, so idle-cycle skipping must be
    /// suppressed.
    pub fn fire(&mut self, cycle: u64) -> bool {
        let words = self.words;
        let mut starved = false;
        let mut fired_count = 0;
        for class in 0..4 {
            let ready = self.ready_count[class];
            let row = &mut self.ready[class * words..(class + 1) * words];
            let units = self.units[class];
            if ready <= units {
                // Every ready entry of the class gets a unit.
                for (f, r) in self.fired.iter_mut().zip(row.iter_mut()) {
                    *f |= std::mem::take(r);
                }
                self.ready_count[class] = 0;
                fired_count += ready;
                continue;
            }
            starved = true;
            fired_count += units;
            self.ready_count[class] = ready - units;
            // Age order from the head: the head word's bits at or above the
            // head, the words after it (wrapping), then the head word's
            // bits below the head.
            let head = (self.front_seq & self.rob_mask) as usize;
            let (head_word, head_bit) = (head / 64, head % 64);
            let mut take = units;
            for k in 0..=words {
                let wi = (head_word + k) & (words - 1);
                let mask = if k == 0 {
                    u64::MAX << head_bit
                } else if k == words {
                    (1u64 << head_bit) - 1
                } else {
                    u64::MAX
                };
                let mut bits = row[wi] & mask;
                while bits != 0 && take > 0 {
                    let lowest = bits & bits.wrapping_neg();
                    bits ^= lowest;
                    row[wi] ^= lowest;
                    self.fired[wi] |= lowest;
                    take -= 1;
                }
                if take == 0 {
                    break;
                }
            }
        }
        self.in_window -= fired_count;
        if fired_count > 0 {
            let (near, far) = (((cycle + 1) & 3) as usize, ((cycle + 2) & 3) as usize);
            debug_assert!(
                !self.bucket_live[near] || self.bucket_at[near] == cycle + 1,
                "completion buckets alias"
            );
            for w in 0..words {
                let fired = std::mem::take(&mut self.fired[w]);
                let slow = fired & self.slow[w];
                self.completing[near * words + w] |= fired & !slow;
                self.completing[far * words + w] |= slow;
                self.bucket_live[near] |= fired & !slow != 0;
                self.bucket_live[far] |= slow != 0;
            }
            self.bucket_at[near] = cycle + 1;
            self.bucket_at[far] = cycle + 2;
        }
        starved
    }

    /// Returns `true` if both a window slot and a ROB slot are free.
    #[must_use]
    #[inline]
    pub fn can_accept(&self) -> bool {
        self.in_window < self.cfg.window && self.next_seq - self.front_seq < u64::from(self.cfg.rob)
    }

    /// Dispatches one instruction, renaming its sources against the
    /// last-writer table. Returns the assigned sequence number.
    #[inline]
    pub fn dispatch(
        &mut self,
        op: OpClass,
        dest: Option<fetchmech_isa::Reg>,
        srcs: [Option<fetchmech_isa::Reg>; 2],
        mispredicted: bool,
    ) -> u64 {
        debug_assert!(self.can_accept(), "dispatch into a full window/ROB");
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut deps = [SEQ_NONE; 2];
        for (source, src) in srcs.iter().enumerate() {
            if let Some(reg) = src {
                deps[source] = self.last_writer[reg.file_index()];
            }
        }
        if let Some(dest) = dest {
            self.last_writer[dest.file_index()] = seq;
        }
        // Both sources renamed to one producer: one edge, counted once.
        if deps[1] == deps[0] {
            deps[1] = SEQ_NONE;
        }
        let is_cond = op == OpClass::CondBranch;
        self.unresolved_cond += u32::from(is_cond);
        let latency = op.latency();
        debug_assert!(
            (1..=2).contains(&latency),
            "bucket ring assumes latency <= 2"
        );
        let slot = self.slot(seq);
        let (w, m) = (slot / 64, 1u64 << (slot % 64));
        self.done[w] &= !m;
        assign_bits(&mut self.slow[w], m, latency == 2);
        assign_bits(&mut self.cond[w], m, is_cond);
        debug_assert_eq!(self.waited[w] & m, 0, "a retired slot kept waiters");
        let mut entry = SEntry {
            class: class_index(op.fu_class()) as u8,
            mispredicted,
            ..SEntry::IDLE
        };
        for (source, &d) in deps.iter().enumerate() {
            if !self.dep_done(d) {
                let p = self.slot(d);
                self.waited[p / 64] |= 1 << (p % 64);
                let link = ((slot as u32) << 1) | source as u32;
                entry.next_waiter[source] = std::mem::replace(&mut self.rob[p].waiter_head, link);
                entry.waiting += 1;
            }
        }
        self.rob[slot] = entry;
        if entry.waiting == 0 {
            self.set_ready(slot);
        }
        self.in_window += 1;
        self.stats.dispatched += 1;
        seq
    }

    /// Records `n` cycles in which dispatch was blocked by a full window.
    #[inline]
    pub fn note_window_full(&mut self, n: u64) {
        self.stats.window_full_cycles += n;
    }

    /// The earliest cycle at which an in-flight instruction completes, if
    /// any instruction is executing.
    #[must_use]
    #[inline]
    pub fn next_completion(&self) -> Option<u64> {
        self.bucket_live
            .iter()
            .zip(self.bucket_at)
            .filter(|&(&live, _)| live)
            .map(|(_, at)| at)
            .min()
    }

    /// Returns `true` if the front ROB entry has completed and will retire
    /// on the next [`begin_cycle`](Self::begin_cycle) — cycles with a
    /// retirable backlog cannot be skipped.
    #[must_use]
    #[inline]
    pub fn front_retirable(&self) -> bool {
        self.front_seq < self.next_seq && Self::bit(&self.done, self.slot(self.front_seq))
    }

    /// Number of dispatched conditional branches not yet executed.
    #[must_use]
    #[inline]
    pub fn unresolved_cond(&self) -> u32 {
        self.unresolved_cond
    }

    /// Returns `true` when no instructions remain in flight.
    #[must_use]
    #[inline]
    pub fn drained(&self) -> bool {
        self.front_seq == self.next_seq
    }

    /// Returns core statistics.
    #[must_use]
    pub fn stats(&self) -> OooStats {
        self.stats
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
            // Dispatched mispredicted transfers not yet resolved, oldest
            // first; the stream core watches the oldest, as the simulator
            // loop does.
            let mut unresolved = std::collections::VecDeque::new();
            let mut watched_resolutions = 0;
            let mut next = 0;
            let mut cycle = 0u64;
            loop {
                let resolved = a.begin_cycle(cycle);
                let watched = unresolved.front().copied();
                let b_resolved = b.begin_cycle(cycle, watched);
                let a_resolved = resolved
                    .iter()
                    .any(|r| Some(r.seq) == watched && r.mispredicted);
                assert_eq!(
                    b_resolved, a_resolved,
                    "trial {trial} {cfg:?} cycle {cycle}: watched {watched:?} resolution"
                );
                watched_resolutions += usize::from(a_resolved);
                unresolved.retain(|&s| !resolved.iter().any(|r| r.seq == s));
                assert_eq!(
                    a.stats().retired,
                    b.stats().retired,
                    "trial {trial} {cfg:?} cycle {cycle}: retired"
                );
                a.fire(cycle);
                b.fire(cycle);
                let mut dispatched = 0;
                while next < insts.len() && dispatched < cfg.issue_rate && a.can_accept() {
                    assert!(
                        b.can_accept(),
                        "trial {trial} {cfg:?} cycle {cycle}: accept mismatch"
                    );
                    let f = &insts[next];
                    let sa = a.dispatch(f);
                    let i = &f.inst;
                    let sb = b.dispatch(i.op, i.dest, i.srcs, f.mispredicted);
                    assert_eq!(sa, sb);
                    if f.mispredicted {
                        unresolved.push_back(sa);
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
            assert_eq!(a.stats(), b.stats(), "trial {trial}");
            assert!(b.drained());
            assert_eq!(b.next_completion(), None);
            assert!(!b.front_retirable());
        }
    }

    #[test]
    fn stream_core_starved_fire_is_reported() {
        let tight = OooConfig {
            issue_rate: 4,
            window: 16,
            rob: 32,
            fxu: 1,
            fpu: 1,
            branch_units: 1,
            mem_units: 1,
        };
        let mut core = StreamCore::new(tight);
        core.begin_cycle(0, None);
        assert!(!core.fire(0), "empty window is not starved");
        // Two independent ALU ops, one FXU: the second is ready but starved.
        core.dispatch(OpClass::IntAlu, None, [None, None], false);
        core.dispatch(OpClass::IntAlu, None, [None, None], false);
        core.begin_cycle(1, None);
        assert!(
            core.fire(1),
            "ready entry denied a unit must report starved"
        );
        assert_eq!(core.next_completion(), Some(2));
        core.begin_cycle(2, None);
        assert!(!core.fire(2), "lone remaining op fires unstarved");
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
