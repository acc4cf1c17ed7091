//! Fetch packets and the cursors fetch units consume.
//!
//! Fetch mechanisms (implemented in the `fetchmech` core crate) are
//! *trace-driven*: they see the correct-path dynamic instruction stream and
//! model the per-cycle delivery constraints of their hardware — cache-block
//! geometry, bank conflicts, branch-prediction outcomes, and misprediction
//! stalls. Wrong-path instructions are not simulated; a mispredicted control
//! transfer ends the cycle's packet and stalls fetch until the pipeline
//! reports resolution (the paper's footnote 1: total penalty = fetch redirect
//! penalty + cycles until the branch executes).

use fetchmech_isa::{BlockStream, DynInst};

/// One fetched instruction plus its prediction outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchedInst {
    /// The dynamic instruction.
    pub inst: DynInst,
    /// `true` if the branch predictor mispredicted this control transfer
    /// (wrong direction or wrong target). Always `false` for non-control
    /// instructions.
    pub mispredicted: bool,
}

/// The instructions a fetch unit delivered in one cycle.
#[derive(Debug, Clone, Default)]
pub struct FetchPacket {
    /// Delivered instructions, in program order. At most one — the last —
    /// may be mispredicted.
    pub insts: Vec<FetchedInst>,
}

impl FetchPacket {
    /// An empty packet (a fetch bubble).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of instructions delivered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns `true` if nothing was delivered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Returns `true` if the packet ends in a mispredicted control transfer
    /// (after which the fetch unit has stalled itself).
    #[must_use]
    pub fn ends_mispredicted(&self) -> bool {
        self.insts.last().is_some_and(|f| f.mispredicted)
    }
}

/// A peekable cursor over a shared, immutable dynamic instruction trace.
///
/// Fetch mechanisms look ahead up to one issue-width of instructions to build
/// a packet, then consume what they delivered.
///
/// The trace is held as an `Arc<[DynInst]>`, so many cursors — on the same
/// thread or across a worker pool — share one materialized trace with no
/// copying: constructing a cursor from an existing `Arc` is a reference-count
/// bump, and every peek is a slice index. (The pre-PR-3 implementation boxed
/// a `dyn Iterator` and buffered into a `VecDeque`, which forced every caller
/// to hand over an owned trace per run.)
///
/// # Examples
///
/// ```
/// use fetchmech_isa::{Addr, DynInst, OpClass};
/// use fetchmech_pipeline::TraceCursor;
///
/// let insts: Vec<_> = (0..4)
///     .map(|i| DynInst::simple(Addr::from_word_index(i), OpClass::IntAlu, None, [None, None]))
///     .collect();
/// let mut cur = TraceCursor::new(insts);
/// assert_eq!(cur.peek(2).unwrap().addr, Addr::from_word_index(2));
/// cur.consume(3);
/// assert_eq!(cur.peek(0).unwrap().addr, Addr::from_word_index(3));
/// cur.consume(1);
/// assert!(cur.is_done());
/// ```
#[derive(Clone)]
pub struct TraceCursor {
    trace: std::sync::Arc<[DynInst]>,
    pos: usize,
}

impl std::fmt::Debug for TraceCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCursor")
            .field("len", &self.trace.len())
            .field("pos", &self.pos)
            .finish()
    }
}

impl TraceCursor {
    /// Wraps a trace. Accepts anything convertible to an `Arc<[DynInst]>`:
    /// an owned `Vec`, a borrowed slice (copied once), or an existing shared
    /// `Arc` (zero-copy).
    pub fn new(trace: impl Into<std::sync::Arc<[DynInst]>>) -> Self {
        Self {
            trace: trace.into(),
            pos: 0,
        }
    }

    /// Returns the instruction `offset` positions ahead of the cursor, if the
    /// trace extends that far.
    #[must_use]
    pub fn peek(&self, offset: usize) -> Option<&DynInst> {
        self.trace.get(self.pos + offset)
    }

    /// Advances the cursor by `n` instructions.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` instructions remain.
    pub fn consume(&mut self, n: usize) {
        assert!(
            self.pos + n <= self.trace.len(),
            "consumed past end of trace"
        );
        self.pos += n;
    }

    /// Returns `true` when the trace is exhausted.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.pos >= self.trace.len()
    }
}

/// A peekable cursor over a shared run-length [`BlockStream`].
///
/// The block-level analogue of [`TraceCursor`] over the same logical
/// instruction sequence, but positioned as (record, offset) into the stream
/// so the fast fetch path can admit whole template runs without touching
/// individual instructions. `iter_ahead` transparently crosses segment
/// boundaries, so any per-instruction consumer sees exactly the materialized
/// trace; a fetch unit walks the records itself and hands the cursor the
/// (record, offset) it stopped at.
///
/// # Examples
///
/// ```
/// use fetchmech_isa::{Addr, BlockStream, DynInst, OpClass};
/// use fetchmech_pipeline::BlockCursor;
///
/// let insts: Vec<_> = (0..4)
///     .map(|i| DynInst::simple(Addr::from_word_index(i), OpClass::IntAlu, None, [None, None]))
///     .collect();
/// let stream = std::sync::Arc::new(BlockStream::from_insts(&insts));
/// let mut cur = BlockCursor::new(stream);
/// assert_eq!(cur.iter_ahead().nth(2).unwrap().addr, Addr::from_word_index(2));
/// cur.advance_to(0, 3, 3); // three instructions into the one record
/// assert_eq!(cur.iter_ahead().next().unwrap().addr, Addr::from_word_index(3));
/// cur.advance_to(1, 0, 1); // past the last record
/// assert!(cur.is_done());
/// ```
#[derive(Clone)]
pub struct BlockCursor {
    stream: std::sync::Arc<BlockStream>,
    /// Current record index; `records().len()` once exhausted.
    rec: usize,
    /// Offset within the current record's template; always in-bounds while
    /// records remain.
    off: usize,
    /// Absolute instructions consumed.
    pos: u64,
}

impl std::fmt::Debug for BlockCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCursor")
            .field("records", &self.stream.records().len())
            .field("rec", &self.rec)
            .field("off", &self.off)
            .field("pos", &self.pos)
            .finish()
    }
}

impl BlockCursor {
    /// Wraps a shared block stream, positioned at the start.
    #[must_use]
    pub fn new(stream: std::sync::Arc<BlockStream>) -> Self {
        Self {
            stream,
            rec: 0,
            off: 0,
            pos: 0,
        }
    }

    /// Moves the cursor `n` instructions ahead, to offset `off` of record
    /// `rec` — a position the caller has already walked to (record count
    /// and offset 0 once exhausted).
    ///
    /// # Panics
    ///
    /// Panics if (`rec`, `off`) is not a position of the stream.
    #[inline]
    pub fn advance_to(&mut self, rec: usize, off: usize, n: usize) {
        let records = self.stream.records();
        assert!(
            records
                .get(rec)
                .map_or(rec == records.len() && off == 0, |&id| {
                    off < self.stream.template(id).len()
                }),
            "advanced past end of stream"
        );
        self.rec = rec;
        self.off = off;
        self.pos += n as u64;
    }

    /// Returns `true` when the stream is exhausted.
    #[must_use]
    #[inline]
    pub fn is_done(&self) -> bool {
        self.rec >= self.stream.records().len()
    }

    /// Absolute instructions consumed so far.
    #[must_use]
    pub fn pos(&self) -> u64 {
        self.pos
    }

    /// Index of the record the cursor is positioned in (equal to the record
    /// count once exhausted).
    #[must_use]
    #[inline]
    pub fn record_index(&self) -> usize {
        self.rec
    }

    /// Offset within the current record's template (0 when exhausted).
    #[must_use]
    #[inline]
    pub fn offset(&self) -> usize {
        self.off
    }

    /// Iterates the instructions ahead of the cursor (inclusive of the
    /// current position) without consuming.
    #[inline]
    pub fn iter_ahead(&self) -> impl Iterator<Item = &DynInst> + '_ {
        let records = self.stream.records();
        let first = records.get(self.rec).map(|&id| {
            let t = self.stream.template(id);
            t.insts()[self.off..].iter()
        });
        first.into_iter().flatten().chain(
            records[(self.rec + 1).min(records.len())..]
                .iter()
                .flat_map(|&id| self.stream.template(id).insts().iter()),
        )
    }

    /// A zero-copy handle to the underlying shared stream.
    #[must_use]
    pub fn shared(&self) -> std::sync::Arc<BlockStream> {
        std::sync::Arc::clone(&self.stream)
    }

    /// Borrows the underlying stream without touching the refcount.
    #[must_use]
    #[inline]
    pub fn stream(&self) -> &BlockStream {
        &self.stream
    }
}

impl From<std::sync::Arc<BlockStream>> for BlockCursor {
    fn from(stream: std::sync::Arc<BlockStream>) -> Self {
        Self::new(stream)
    }
}

impl From<&std::sync::Arc<BlockStream>> for BlockCursor {
    fn from(stream: &std::sync::Arc<BlockStream>) -> Self {
        Self::new(std::sync::Arc::clone(stream))
    }
}

impl From<BlockStream> for BlockCursor {
    fn from(stream: BlockStream) -> Self {
        Self::new(std::sync::Arc::new(stream))
    }
}

/// Run-length encodes a per-instruction trace through
/// [`BlockStream::from_insts`].
impl From<Vec<DynInst>> for BlockCursor {
    fn from(trace: Vec<DynInst>) -> Self {
        BlockStream::from_insts(&trace).into()
    }
}

/// Run-length encodes a shared per-instruction trace through
/// [`BlockStream::from_insts`].
impl From<&std::sync::Arc<[DynInst]>> for BlockCursor {
    fn from(trace: &std::sync::Arc<[DynInst]>) -> Self {
        BlockStream::from_insts(trace).into()
    }
}

impl From<Vec<DynInst>> for TraceCursor {
    fn from(trace: Vec<DynInst>) -> Self {
        Self::new(trace)
    }
}

impl From<std::sync::Arc<[DynInst]>> for TraceCursor {
    fn from(trace: std::sync::Arc<[DynInst]>) -> Self {
        Self::new(trace)
    }
}

impl From<&std::sync::Arc<[DynInst]>> for TraceCursor {
    fn from(trace: &std::sync::Arc<[DynInst]>) -> Self {
        Self::new(std::sync::Arc::clone(trace))
    }
}

impl From<&[DynInst]> for TraceCursor {
    fn from(trace: &[DynInst]) -> Self {
        Self::new(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetchmech_isa::{Addr, OpClass};

    fn seq(n: u64) -> Vec<DynInst> {
        (0..n)
            .map(|i| {
                DynInst::simple(
                    Addr::from_word_index(i),
                    OpClass::IntAlu,
                    None,
                    [None, None],
                )
            })
            .collect()
    }

    #[test]
    fn peek_does_not_consume() {
        let c = TraceCursor::new(seq(5));
        assert_eq!(c.peek(0).unwrap().addr, Addr::from_word_index(0));
        assert_eq!(c.peek(0).unwrap().addr, Addr::from_word_index(0));
        assert_eq!(c.peek(4).unwrap().addr, Addr::from_word_index(4));
        assert!(c.peek(5).is_none());
    }

    #[test]
    fn consume_advances() {
        let mut c = TraceCursor::new(seq(5));
        c.consume(2);
        assert_eq!(c.peek(0).unwrap().addr, Addr::from_word_index(2));
        c.consume(3);
        assert!(c.is_done());
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn overconsume_panics() {
        let mut c = TraceCursor::new(seq(2));
        c.consume(3);
    }

    #[test]
    fn cursors_share_one_trace_allocation() {
        let trace: std::sync::Arc<[DynInst]> = seq(8).into();
        let a = TraceCursor::new(std::sync::Arc::clone(&trace));
        let b = TraceCursor::from(&trace);
        assert!(std::sync::Arc::ptr_eq(&a.trace, &b.trace));
        assert_eq!(a.trace.len() - a.pos, 8);
        assert_eq!(b.trace.len() - b.pos, 8);
    }

    fn looped_trace() -> Vec<DynInst> {
        // Two-segment loop plus a cut tail, exercising boundary crossings.
        let branch = |addr: u64, taken: bool, target: u64| DynInst {
            addr: Addr::new(addr),
            op: OpClass::CondBranch,
            dest: None,
            srcs: [None, None],
            next_pc: Addr::new(if taken { target } else { addr + 4 }),
            ctrl: Some(fetchmech_isa::DynCtrl {
                taken,
                target: Addr::new(target),
                link: None,
            }),
        };
        let alu = |addr: u64| DynInst::simple(Addr::new(addr), OpClass::IntAlu, None, [None, None]);
        let mut t = Vec::new();
        for _ in 0..3 {
            t.extend_from_slice(&[alu(0x100), alu(0x104), branch(0x108, true, 0x100)]);
        }
        t.extend_from_slice(&[
            alu(0x100),
            alu(0x104),
            branch(0x108, false, 0x100),
            alu(0x10c),
        ]);
        t
    }

    /// Advances `b` by `n` instructions the way a fetch unit does: walks the
    /// template lengths to the new (record, offset), then hands it over.
    fn advance(b: &mut BlockCursor, n: usize) {
        let records = b.stream().records();
        let (mut rec, mut off) = (b.record_index(), b.offset() + n);
        while let Some(&id) = records.get(rec) {
            let len = b.stream().template(id).len();
            if off < len {
                break;
            }
            off -= len;
            rec += 1;
        }
        b.advance_to(rec, off, n);
    }

    #[test]
    fn block_cursor_matches_trace_cursor() {
        let trace = looped_trace();
        let stream = std::sync::Arc::new(BlockStream::from_insts(&trace));
        let mut b = BlockCursor::new(stream);
        let mut t = TraceCursor::new(trace.clone());
        let mut consumed = 0usize;
        for step in [0usize, 1, 2, 4, 0, 3, 1, 2] {
            let n = step.min(t.trace.len() - t.pos);
            advance(&mut b, n);
            t.consume(n);
            consumed += n;
            let ahead: Vec<DynInst> = b.iter_ahead().copied().collect();
            assert_eq!(ahead, t.trace[t.pos..], "after {consumed}");
            assert_eq!(b.is_done(), t.is_done());
            assert_eq!(b.pos(), consumed as u64);
        }
        assert!(b.is_done());
    }

    #[test]
    fn block_cursor_tracks_record_and_offset() {
        let trace = looped_trace();
        let stream = std::sync::Arc::new(BlockStream::from_insts(&trace));
        let mut b = BlockCursor::new(stream);
        assert_eq!((b.record_index(), b.offset()), (0, 0));
        advance(&mut b, 1);
        assert_eq!((b.record_index(), b.offset()), (0, 1));
        advance(&mut b, 2);
        assert_eq!((b.record_index(), b.offset()), (1, 0));
        advance(&mut b, trace.len() - 3);
        assert_eq!(b.record_index(), b.stream().records().len());
        assert_eq!(b.offset(), 0);
        assert!(b.is_done());
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn block_cursor_overconsume_panics() {
        let trace = looped_trace();
        let stream = std::sync::Arc::new(BlockStream::from_insts(&trace));
        let mut b = BlockCursor::new(stream);
        advance(&mut b, trace.len() + 1);
    }

    #[test]
    fn packet_mispredict_flag() {
        let mut p = FetchPacket::empty();
        assert!(!p.ends_mispredicted());
        p.insts.push(FetchedInst {
            inst: DynInst::simple(Addr::new(0), OpClass::IntAlu, None, [None, None]),
            mispredicted: false,
        });
        assert!(!p.ends_mispredicted());
        p.insts.push(FetchedInst {
            inst: DynInst::simple(Addr::new(4), OpClass::IntAlu, None, [None, None]),
            mispredicted: true,
        });
        assert!(p.ends_mispredicted());
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
    }
}
