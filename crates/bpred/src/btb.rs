//! The branch-target buffer (see the crate docs for the paper context).

use fetchmech_isa::Addr;

/// Configuration of the branch-target buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BtbConfig {
    /// Number of entries (direct-mapped).
    pub entries: usize,
    /// Saturating-counter width in bits (the paper uses 2).
    pub counter_bits: u8,
}

impl BtbConfig {
    #[inline]
    fn counter_max(&self) -> u8 {
        (1u16 << self.counter_bits) as u8 - 1
    }

    /// Threshold at or above which a counter predicts taken.
    #[inline]
    fn taken_threshold(&self) -> u8 {
        1u8 << (self.counter_bits - 1)
    }
}

impl Default for BtbConfig {
    /// The paper's BTB: 1024 entries, 2-bit counters.
    fn default() -> Self {
        Self {
            entries: 1024,
            counter_bits: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// Full word-index tag (no partial-tag aliasing).
    tag: u64,
    target: Addr,
    counter: u8,
}

/// A single-instruction prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Whether the instruction is predicted to redirect fetch.
    pub taken: bool,
    /// Predicted target; `Some` exactly on a BTB hit.
    pub target: Option<Addr>,
    /// Whether the lookup hit.
    pub hit: bool,
}

impl Prediction {
    /// The not-taken / BTB-miss prediction.
    #[must_use]
    #[inline]
    pub(crate) fn not_taken() -> Self {
        Self {
            taken: false,
            target: None,
            hit: false,
        }
    }
}

/// Predictor update/lookup statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BtbStats {
    /// Single-instruction lookups.
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Updates applied.
    pub updates: u64,
    /// Allocations of a new entry (on a taken transfer).
    pub allocations: u64,
    /// Allocations that evicted a live entry mapping elsewhere.
    pub evictions: u64,
}

/// The branch-target buffer.
#[derive(Debug, Clone)]
pub struct Btb {
    config: BtbConfig,
    entries: Vec<Option<Entry>>,
    stats: BtbStats,
}

impl Btb {
    /// Creates an empty BTB.
    ///
    /// # Panics
    ///
    /// Panics if `config.entries` is zero or `config.counter_bits` is not in
    /// `1..=7`.
    #[must_use]
    pub fn new(config: BtbConfig) -> Self {
        assert!(config.entries > 0, "BTB must have at least one entry");
        assert!(
            (1..=7).contains(&config.counter_bits),
            "counter bits must be in 1..=7"
        );
        Self {
            config,
            entries: vec![None; config.entries],
            stats: BtbStats::default(),
        }
    }

    #[inline]
    fn slot(&self, addr: Addr) -> usize {
        let entries = self.config.entries as u64;
        let w = addr.word_index();
        // Entry counts are powers of two in every machine model; keep the
        // modulo fallback for odd test configurations.
        if entries.is_power_of_two() {
            (w & (entries - 1)) as usize
        } else {
            (w % entries) as usize
        }
    }

    /// Predicts the instruction at `addr`.
    ///
    /// * BTB miss ⇒ predicted not-taken (sequential fetch continues).
    /// * Hit, conditional ⇒ taken iff the 2-bit counter is in a taken state.
    /// * Hit, unconditional (`is_cond == false`) ⇒ always predicted taken to
    ///   the cached target.
    #[inline]
    pub fn predict(&mut self, addr: Addr, is_cond: bool) -> Prediction {
        self.stats.lookups += 1;
        let slot = self.slot(addr);
        match self.entries[slot] {
            Some(e) if e.tag == addr.word_index() => {
                self.stats.hits += 1;
                let taken = if is_cond {
                    e.counter >= self.config.taken_threshold()
                } else {
                    true
                };
                Prediction {
                    taken,
                    target: Some(e.target),
                    hit: true,
                }
            }
            _ => Prediction::not_taken(),
        }
    }

    /// Non-mutating variant of [`Btb::predict`] (no statistics update),
    /// used by the fetch unit's block-level comparator chain.
    #[must_use]
    #[inline]
    pub fn peek(&self, addr: Addr, is_cond: bool) -> Prediction {
        let slot = self.slot(addr);
        match self.entries[slot] {
            Some(e) if e.tag == addr.word_index() => {
                let taken = if is_cond {
                    e.counter >= self.config.taken_threshold()
                } else {
                    true
                };
                Prediction {
                    taken,
                    target: Some(e.target),
                    hit: true,
                }
            }
            _ => Prediction::not_taken(),
        }
    }

    /// Records the resolved outcome of the control transfer at `addr`.
    ///
    /// Entries are allocated on taken transfers (the standard BTB policy: a
    /// never-taken branch never occupies an entry). On a hit, conditional
    /// counters saturate toward the outcome and the cached target is
    /// refreshed when the transfer was taken.
    #[inline]
    pub fn update(&mut self, addr: Addr, is_cond: bool, taken: bool, target: Addr) {
        self.stats.updates += 1;
        let slot = self.slot(addr);
        let tag = addr.word_index();
        match &mut self.entries[slot] {
            Some(e) if e.tag == tag => {
                if is_cond {
                    if taken {
                        e.counter = (e.counter + 1).min(self.config.counter_max());
                    } else {
                        e.counter = e.counter.saturating_sub(1);
                    }
                }
                if taken {
                    e.target = target;
                }
            }
            other => {
                if taken {
                    if other.is_some() {
                        self.stats.evictions += 1;
                    }
                    self.stats.allocations += 1;
                    // Allocate weakly-taken: the transfer just went that way.
                    *other = Some(Entry {
                        tag,
                        target,
                        counter: self.config.taken_threshold(),
                    });
                }
            }
        }
    }

    /// Returns accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> BtbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn btb() -> Btb {
        Btb::new(BtbConfig::default())
    }

    #[test]
    fn miss_predicts_not_taken() {
        let mut b = btb();
        let p = b.predict(Addr::new(0x100), true);
        assert!(!p.taken);
        assert!(!p.hit);
        assert_eq!(p.target, None);
    }

    #[test]
    fn taken_allocates_weakly_taken() {
        let mut b = btb();
        b.update(Addr::new(0x100), true, true, Addr::new(0x800));
        let p = b.predict(Addr::new(0x100), true);
        assert!(p.taken);
        assert_eq!(p.target, Some(Addr::new(0x800)));
    }

    #[test]
    fn not_taken_never_allocates() {
        let mut b = btb();
        b.update(Addr::new(0x100), true, false, Addr::new(0x800));
        assert!(!b.predict(Addr::new(0x100), true).hit);
    }

    #[test]
    fn two_bit_hysteresis() {
        let mut b = btb();
        let a = Addr::new(0x100);
        let t = Addr::new(0x800);
        b.update(a, true, true, t); // counter = 2
        b.update(a, true, true, t); // counter = 3
        b.update(a, true, false, t); // counter = 2, still predicts taken
        assert!(
            b.predict(a, true).taken,
            "one not-taken must not flip a saturated counter"
        );
        b.update(a, true, false, t); // counter = 1
        assert!(!b.predict(a, true).taken);
        b.update(a, true, true, t); // counter = 2
        assert!(b.predict(a, true).taken);
    }

    #[test]
    fn unconditional_hit_is_always_taken() {
        let mut b = btb();
        let a = Addr::new(0x200);
        b.update(a, false, true, Addr::new(0x900));
        // Drive the (unused) counter down; unconditional hits stay taken.
        let p = b.predict(a, false);
        assert!(p.taken);
        assert_eq!(p.target, Some(Addr::new(0x900)));
    }

    #[test]
    fn taken_update_refreshes_target() {
        let mut b = btb();
        let a = Addr::new(0x300);
        b.update(a, false, true, Addr::new(0x1000));
        b.update(a, false, true, Addr::new(0x2000));
        assert_eq!(b.predict(a, false).target, Some(Addr::new(0x2000)));
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut b = btb();
        let a1 = Addr::from_word_index(5);
        let a2 = Addr::from_word_index(5 + 1024); // same slot
        b.update(a1, true, true, Addr::new(0x800));
        b.update(a2, true, true, Addr::new(0x900));
        assert!(!b.predict(a1, true).hit, "conflicting entry must evict");
        assert!(b.predict(a2, true).hit);
        assert_eq!(b.stats().evictions, 1);
    }

    #[test]
    fn full_tags_prevent_aliased_hits() {
        let mut b = btb();
        let a1 = Addr::from_word_index(7);
        let a2 = Addr::from_word_index(7 + 1024);
        b.update(a1, true, true, Addr::new(0x800));
        assert!(!b.predict(a2, true).hit);
    }

    #[test]
    fn peek_matches_predict_without_stats() {
        let mut b = btb();
        let a = Addr::new(0x100);
        b.update(a, true, true, Addr::new(0x800));
        let before = b.stats().lookups;
        let peeked = b.peek(a, true);
        assert_eq!(b.stats().lookups, before);
        assert_eq!(peeked, b.predict(a, true));
    }

    #[test]
    fn default_is_the_paper_config() {
        let c = BtbConfig::default();
        assert_eq!(c.entries, 1024);
        assert_eq!(c.counter_bits, 2);
    }
}
