//! Per-branch behaviour models.
//!
//! The paper drives its simulator with `spike` traces of SPEC92 binaries. We
//! substitute synthetic programs whose conditional branches follow explicit
//! stochastic models; the models are the "program input". Five *profile*
//! inputs and one *test* input are derived from the base behaviour by
//! deterministic perturbation, reproducing the §4 profile-driven methodology
//! (profiles are measured on inputs 0–4 and the simulation runs input 5).

use fetchmech_isa::rng::{splitmix64, Pcg64};
use fetchmech_isa::BranchId;

/// How a static conditional branch behaves dynamically.
///
/// Decisions are expressed in terms of the branch's *original* taken edge;
/// the executor XORs with the terminator's `inverted` flag after compiler
/// transforms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BranchModel {
    /// Independent coin flips: the original taken edge is followed with the
    /// given probability.
    Bernoulli(f64),
    /// A loop backedge: on loop entry a trip count with the given mean is
    /// sampled; the taken (continue) edge is followed until the count is
    /// exhausted, then the branch exits and re-arms.
    Loop {
        /// Mean trip count (>= 1).
        mean_trips: f64,
    },
    /// A loop backedge with the *same* trip count on every activation (an
    /// inner loop over a fixed-size structure). Perfectly predictable by a
    /// history-based predictor when `trips` fits in the history.
    FixedLoop {
        /// Trip count (>= 1).
        trips: u64,
    },
    /// A repeating outcome pattern with occasional noise — the data-dependent
    /// but *correlated* branches real integer code is full of, and the
    /// reason two-level predictors beat per-branch counters.
    Pattern {
        /// Outcome bits, LSB first; bit `i` is the outcome at step `i`.
        bits: u32,
        /// Pattern length in `1..=32`.
        len: u8,
        /// Probability any step's outcome is flipped.
        noise: f64,
    },
}

impl BranchModel {
    /// The long-run probability of following the original taken edge.
    #[must_use]
    pub fn taken_fraction(&self) -> f64 {
        match *self {
            BranchModel::Bernoulli(p) => p,
            // A loop with mean t trips takes the backedge (t-1)/t of the time.
            BranchModel::Loop { mean_trips } => {
                let t = mean_trips.max(1.0);
                (t - 1.0) / t
            }
            BranchModel::FixedLoop { trips } => {
                let t = trips.max(1) as f64;
                (t - 1.0) / t
            }
            BranchModel::Pattern { bits, len, noise } => {
                let ones = (bits & mask(len)).count_ones() as f64;
                let base = ones / f64::from(len);
                base * (1.0 - noise) + (1.0 - base) * noise
            }
        }
    }

    /// Parses one behaviour annotation — `p=0.7`, `loop=20`, `fixed=8` or
    /// `pattern=1101:0.05` — the grammar both program frontends share.
    /// Callers attach their own line numbers to the error.
    ///
    /// # Errors
    ///
    /// A message naming the malformed or out-of-range part.
    pub fn parse_annotation(anno: &str) -> Result<Self, String> {
        let (key, value) = anno
            .split_once('=')
            .ok_or_else(|| format!("bad behaviour annotation @{anno}"))?;
        let value = value.trim();
        match key.trim() {
            "p" => {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("bad probability {value:?}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err("probability must be in [0, 1]".into());
                }
                Ok(BranchModel::Bernoulli(p))
            }
            "loop" => {
                let m: f64 = value
                    .parse()
                    .map_err(|_| format!("bad loop mean {value:?}"))?;
                if m < 1.0 {
                    return Err("loop mean must be >= 1".into());
                }
                Ok(BranchModel::Loop { mean_trips: m })
            }
            "fixed" => {
                let t: u64 = value
                    .parse()
                    .map_err(|_| format!("bad trip count {value:?}"))?;
                if t == 0 {
                    return Err("fixed trips must be >= 1".into());
                }
                Ok(BranchModel::FixedLoop { trips: t })
            }
            "pattern" => {
                let (bits_s, noise_s) =
                    value.split_once(':').ok_or("pattern needs `bits:noise`")?;
                let bits_s = bits_s.trim();
                if bits_s.is_empty() || bits_s.len() > 32 {
                    return Err("pattern needs 1..=32 bits".into());
                }
                let mut bits = 0u32;
                for (i, c) in bits_s.chars().enumerate() {
                    match c {
                        '1' => bits |= 1 << i,
                        '0' => {}
                        _ => return Err("pattern bits must be 0 or 1".into()),
                    }
                }
                let noise: f64 = noise_s
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad pattern noise {noise_s:?}"))?;
                if !(0.0..=1.0).contains(&noise) {
                    return Err("noise must be in [0, 1]".into());
                }
                Ok(BranchModel::Pattern {
                    bits,
                    len: bits_s.len() as u8,
                    noise,
                })
            }
            other => Err(format!("unknown behaviour annotation @{other}=")),
        }
    }
}

fn mask(len: u8) -> u32 {
    if len >= 32 {
        u32::MAX
    } else {
        (1u32 << len) - 1
    }
}

/// The behaviour of every branch in a program, indexed by [`BranchId`].
///
/// Compiler passes that duplicate code (superblock tail duplication) mint
/// fresh branch ids for the copies; [`BehaviorMap::with_origin`] aliases
/// those ids back onto the original branch so every copy shares its
/// original's model *and* runtime state — a duplicated loop backedge
/// continues the same trip count, and the RNG draw sequence is identical to
/// the untransformed program's.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorMap {
    models: Vec<BranchModel>,
    /// `origin[i]` = the base branch whose model/state `BranchId(i)` uses.
    /// Empty means the identity map over `models`.
    origin: Vec<BranchId>,
}

impl BehaviorMap {
    /// Creates a map from dense per-branch models (index = `BranchId.0`).
    #[must_use]
    pub fn new(models: Vec<BranchModel>) -> Self {
        Self {
            models,
            origin: Vec::new(),
        }
    }

    /// Returns the model for `id` (through the origin alias, if any).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn model(&self, id: BranchId) -> BranchModel {
        self.models[self.origin_of(id).0 as usize]
    }

    /// The base branch `id` aliases (itself when no origin map is set).
    ///
    /// # Panics
    ///
    /// Panics if an origin map is set and `id` is out of its range.
    #[must_use]
    pub(crate) fn origin_of(&self, id: BranchId) -> BranchId {
        if self.origin.is_empty() {
            id
        } else {
            self.origin[id.0 as usize]
        }
    }

    /// Re-keys this map for a transformed program: `origin[i]` names the
    /// base branch that transformed branch `BranchId(i)` is a copy of
    /// (identity for surviving originals). The result answers queries for
    /// the transformed id space while sharing the base models.
    ///
    /// # Panics
    ///
    /// Panics if any origin entry is outside the base model range.
    #[must_use]
    pub fn with_origin(&self, origin: Vec<BranchId>) -> BehaviorMap {
        for &o in &origin {
            assert!(
                (o.0 as usize) < self.models.len(),
                "origin {o:?} outside the {} base models",
                self.models.len()
            );
        }
        BehaviorMap {
            models: self.models.clone(),
            origin,
        }
    }

    /// Number of branches covered (in the aliased id space, if any).
    #[must_use]
    pub fn len(&self) -> usize {
        if self.origin.is_empty() {
            self.models.len()
        } else {
            self.origin.len()
        }
    }

    /// Number of *base* branches — the index space runtime state
    /// ([`BehaviorState`]) must cover, since aliased branches share slots.
    #[must_use]
    pub(crate) fn state_len(&self) -> usize {
        self.models.len()
    }

    /// Returns `true` if no branches are covered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Derives the behaviour for a particular program *input*.
    ///
    /// Input 0 is close to the base behaviour; each input perturbs branch
    /// probabilities by up to `magnitude` (absolute, clamped to
    /// `[0.02, 0.98]`) and loop trip means by up to ±`magnitude` relative,
    /// deterministically per `(branch, input)`. Distinct inputs therefore
    /// exercise the same code with shifted — but correlated — branch
    /// statistics, exactly the property profile-driven optimization relies
    /// on.
    #[must_use]
    pub(crate) fn for_input(&self, input: u32, magnitude: f64) -> BehaviorMap {
        let models = self
            .models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut r = Pcg64::new(splitmix64(
                    0x5eed_0000_0000_0000 ^ (i as u64) << 20 ^ u64::from(input),
                ));
                match *m {
                    BranchModel::Bernoulli(p) => {
                        let delta = (r.next_f64() * 2.0 - 1.0) * magnitude;
                        BranchModel::Bernoulli((p + delta).clamp(0.02, 0.98))
                    }
                    BranchModel::Loop { mean_trips } => {
                        let factor = 1.0 + (r.next_f64() * 2.0 - 1.0) * magnitude;
                        BranchModel::Loop {
                            mean_trips: (mean_trips * factor).max(1.0),
                        }
                    }
                    BranchModel::FixedLoop { trips } => {
                        // Inputs scale the structure size; the count stays
                        // fixed within a run.
                        let factor = 1.0 + (r.next_f64() * 2.0 - 1.0) * magnitude;
                        let scaled = ((trips as f64) * factor).round().max(1.0) as u64;
                        BranchModel::FixedLoop { trips: scaled }
                    }
                    BranchModel::Pattern { bits, len, noise } => {
                        // Inputs shift where the pattern "starts" in the data
                        // (a rotation) and perturb the noise level.
                        let l = u32::from(len.clamp(1, 32));
                        let rot = r.next_u64() as u32 % l;
                        let m = if l >= 32 { u32::MAX } else { (1 << l) - 1 };
                        let b = bits & m;
                        let rotated = ((b >> rot) | (b << (l - rot).min(31))) & m;
                        let delta = (r.next_f64() * 2.0 - 1.0) * magnitude * 0.5;
                        BranchModel::Pattern {
                            bits: rotated,
                            len,
                            noise: (noise + delta).clamp(0.0, 0.4),
                        }
                    }
                }
            })
            .collect();
        // Perturbation is keyed by *base* model index, so aliased branches
        // keep tracking their original across inputs.
        BehaviorMap {
            models,
            origin: self.origin.clone(),
        }
    }
}

/// Runtime state the executor keeps per branch (loop trip counters).
#[derive(Debug, Clone, Default)]
pub struct BehaviorState {
    /// `Some(n)` = a loop is live with `n` continues remaining.
    remaining: Vec<Option<u64>>,
    /// Position within a [`BranchModel::Pattern`].
    position: Vec<u32>,
}

impl BehaviorState {
    /// Creates state for `n` branches.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            remaining: vec![None; n],
            position: vec![0; n],
        }
    }

    /// Decides whether the branch follows its *original taken* edge, updating
    /// loop state.
    pub fn decide(&mut self, id: BranchId, model: BranchModel, rng: &mut Pcg64) -> bool {
        match model {
            BranchModel::Bernoulli(p) => rng.chance(p),
            BranchModel::Loop { mean_trips } => self.run_loop(id, || rng.trip_count(mean_trips)),
            BranchModel::FixedLoop { trips } => self.run_loop(id, || trips.max(1)),
            BranchModel::Pattern { bits, len, noise } => {
                let pos = &mut self.position[id.0 as usize];
                let outcome = (bits >> *pos) & 1 == 1;
                *pos = (*pos + 1) % u32::from(len.clamp(1, 32));
                if noise > 0.0 && rng.chance(noise) {
                    !outcome
                } else {
                    outcome
                }
            }
        }
    }

    /// Shared loop mechanics: `fresh_trips` is consulted only when a new
    /// activation starts.
    fn run_loop(&mut self, id: BranchId, fresh_trips: impl FnOnce() -> u64) -> bool {
        let slot = &mut self.remaining[id.0 as usize];
        let left = match slot {
            Some(left) => *left,
            None => {
                let trips = fresh_trips();
                *slot = Some(trips - 1);
                trips - 1
            }
        };
        if left > 0 {
            *slot = Some(left - 1);
            true
        } else {
            *slot = None;
            false
        }
    }

    /// Clears all live loop counters and pattern positions (used at program
    /// restart).
    pub(crate) fn reset(&mut self) {
        self.remaining.fill(None);
        self.position.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bernoulli_fraction_matches() {
        let mut st = BehaviorState::new(1);
        let mut rng = Pcg64::new(1);
        let m = BranchModel::Bernoulli(0.7);
        let n = 100_000;
        let taken = (0..n)
            .filter(|_| st.decide(BranchId(0), m, &mut rng))
            .count();
        let frac = taken as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn loop_model_runs_trips_then_exits() {
        let mut st = BehaviorState::new(1);
        let mut rng = Pcg64::new(2);
        let m = BranchModel::Loop { mean_trips: 8.0 };
        // Execute many loop "entries": count continues per activation.
        let mut activations = 0u64;
        let mut continues = 0u64;
        for _ in 0..200_000 {
            if st.decide(BranchId(0), m, &mut rng) {
                continues += 1;
            } else {
                activations += 1;
            }
        }
        let mean = continues as f64 / activations as f64 + 1.0;
        assert!((mean - 8.0).abs() < 0.3, "observed mean trips {mean}");
    }

    #[test]
    fn loop_taken_fraction_formula() {
        let m = BranchModel::Loop { mean_trips: 10.0 };
        assert!((m.taken_fraction() - 0.9).abs() < 1e-9);
        assert_eq!(BranchModel::Bernoulli(0.25).taken_fraction(), 0.25);
    }

    #[test]
    fn for_input_is_deterministic_and_bounded() {
        let base = BehaviorMap::new(vec![
            BranchModel::Bernoulli(0.5),
            BranchModel::Loop { mean_trips: 10.0 },
        ]);
        let a = base.for_input(3, 0.1);
        let b = base.for_input(3, 0.1);
        assert_eq!(a, b, "same input must derive identical behaviour");
        let c = base.for_input(4, 0.1);
        assert_ne!(a, c, "distinct inputs must differ");
        match a.model(BranchId(0)) {
            BranchModel::Bernoulli(p) => assert!((p - 0.5).abs() <= 0.1 + 1e-9),
            other => panic!("model kind changed: {other:?}"),
        }
        match a.model(BranchId(1)) {
            BranchModel::Loop { mean_trips } => {
                assert!((mean_trips - 10.0).abs() <= 1.0 + 1e-9);
            }
            other => panic!("model kind changed: {other:?}"),
        }
    }

    #[test]
    fn origin_aliases_share_model_and_state() {
        let base = BehaviorMap::new(vec![
            BranchModel::FixedLoop { trips: 4 },
            BranchModel::Bernoulli(0.5),
        ]);
        // Branch 2 is a duplicate of branch 0; 0 and 1 survive as themselves.
        let aliased = base.with_origin(vec![BranchId(0), BranchId(1), BranchId(0)]);
        assert_eq!(aliased.len(), 3);
        assert_eq!(aliased.state_len(), 2);
        assert_eq!(aliased.model(BranchId(2)), base.model(BranchId(0)));
        assert_eq!(aliased.origin_of(BranchId(2)), BranchId(0));

        // Interleaving decisions across the alias continues one trip count:
        // a 4-trip loop yields taken, taken, taken, not-taken regardless of
        // which alias asks.
        let mut st = BehaviorState::new(aliased.state_len());
        let mut rng = Pcg64::new(9);
        let seq: Vec<bool> = [BranchId(0), BranchId(2), BranchId(0), BranchId(2)]
            .iter()
            .map(|&id| st.decide(aliased.origin_of(id), aliased.model(id), &mut rng))
            .collect();
        assert_eq!(seq, vec![true, true, true, false]);

        // for_input preserves the alias and perturbs by base index.
        let perturbed = aliased.for_input(2, 0.1);
        assert_eq!(perturbed.len(), 3);
        assert_eq!(
            perturbed.model(BranchId(2)),
            perturbed.model(BranchId(0)),
            "alias must track its base across inputs"
        );
    }

    #[test]
    fn annotations_map_to_models() {
        let cases = [
            ("p=0.85", BranchModel::Bernoulli(0.85)),
            ("loop=7.5", BranchModel::Loop { mean_trips: 7.5 }),
            ("fixed=40", BranchModel::FixedLoop { trips: 40 }),
            (
                "pattern=101:0.1",
                BranchModel::Pattern {
                    bits: 0b101,
                    len: 3,
                    noise: 0.1,
                },
            ),
            // Bits are read first-outcome-first: bit i is the i-th decision.
            (
                " pattern = 0011 : 0 ",
                BranchModel::Pattern {
                    bits: 0b1100,
                    len: 4,
                    noise: 0.0,
                },
            ),
        ];
        for (anno, want) in cases {
            assert_eq!(BranchModel::parse_annotation(anno), Ok(want), "{anno}");
        }
    }

    #[test]
    fn malformed_annotations_are_named() {
        let cases = [
            ("p=seven", "bad probability \"seven\""),
            ("p=7", "probability must be in [0, 1]"),
            ("loop=0.5", "loop mean must be >= 1"),
            ("fixed=0", "fixed trips must be >= 1"),
            ("fixed=2.5", "bad trip count \"2.5\""),
            ("pattern=101", "pattern needs `bits:noise`"),
            ("pattern=:0.1", "pattern needs 1..=32 bits"),
            ("pattern=1021:0.1", "pattern bits must be 0 or 1"),
            ("pattern=101:2", "noise must be in [0, 1]"),
            ("k=1", "unknown behaviour annotation @k="),
            ("p", "bad behaviour annotation @p"),
        ];
        for (anno, want) in cases {
            assert_eq!(
                BranchModel::parse_annotation(anno),
                Err(want.to_owned()),
                "{anno}"
            );
        }
    }

    #[test]
    fn state_reset_rearms_loops() {
        let mut st = BehaviorState::new(1);
        let mut rng = Pcg64::new(3);
        let m = BranchModel::Loop { mean_trips: 100.0 };
        // Start a loop, then reset mid-flight; the next decision samples a
        // fresh trip count rather than continuing the old one.
        let _ = st.decide(BranchId(0), m, &mut rng);
        assert!(st.remaining[0].is_some());
        st.reset();
        assert!(st.remaining[0].is_none());
    }
}
