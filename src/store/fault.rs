//! Deterministic I/O fault injection for the result store and the serve
//! engine.
//!
//! Chaos testing is only useful when a failure is *replayable*: the same
//! seed must produce the same faults so a crash found in CI can be rerun
//! locally. To make that hold even under arbitrary thread interleavings,
//! fault decisions here are **stateless**: whether an operation faults is a
//! pure hash of `(seed, domain, operation tag, attempt)`, never a function
//! of global operation order. Two runs that perform the same logical
//! operations see the same faults regardless of scheduling.
//!
//! Two entry points:
//!
//! * [`IoFault`] — the hook trait the store writer consults before every
//!   write and fsync. Tests implement it directly for targeted scenarios
//!   (always-fail, fail-once, …).
//! * [`FaultPlan`] — the seeded rate-based implementation, configurable from
//!   the environment ([`FAULT_SEED_ENV`] / [`FAULTS_ENV`]) so the chaos CI
//!   stage can drive the released binary without code changes. It also
//!   carries the engine-side `sim_panic` rate (deterministic worker-thread
//!   panics).

use std::io::ErrorKind;

use fetchmech::isa::{fnv1a64_extend, FNV_OFFSET};

/// Environment variable holding the fault-schedule seed (`u64`).
pub const FAULT_SEED_ENV: &str = "FETCHMECH_FAULT_SEED";

/// Environment variable holding the fault rates, e.g.
/// `FETCHMECH_FAULTS=store_write=0.2,store_short_write=0.3,store_sync=0.1,sim_panic=0.05`.
pub const FAULTS_ENV: &str = "FETCHMECH_FAULTS";

/// What an injected fault tells the caller to do for one I/O attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: perform the real operation.
    Proceed,
    /// Write at most this many bytes of the remaining buffer (a torn /
    /// partial write). The caller's retry loop continues afterwards.
    ShortWrite(usize),
    /// Fail the attempt with this error kind. `Interrupted` and
    /// `WouldBlock` are transient (callers retry); anything else is hard.
    Fail(ErrorKind),
}

/// The hook the store consults before each low-level I/O operation.
///
/// `tag` identifies the logical operation (the record key for store
/// appends), and `attempt` counts retries of that same operation, so a
/// deterministic implementation can fail attempt 0 and let attempt 1
/// through — exactly the transient-fault shape recovery code must survive.
pub trait IoFault: Send + Sync + std::fmt::Debug {
    /// Consulted before writing (a chunk of) a record; `remaining` is the
    /// number of bytes left to write.
    fn on_write(&self, tag: &[u8], attempt: u32, remaining: usize) -> FaultAction;

    /// Consulted before `fsync`/`fdatasync`.
    fn on_sync(&self, tag: &[u8], attempt: u32) -> FaultAction;
}

/// The no-op plan: every operation proceeds untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFault;

impl IoFault for NoFault {
    fn on_write(&self, _tag: &[u8], _attempt: u32, _remaining: usize) -> FaultAction {
        FaultAction::Proceed
    }
    fn on_sync(&self, _tag: &[u8], _attempt: u32) -> FaultAction {
        FaultAction::Proceed
    }
}

/// Fault-decision domains, mixed into the hash so the same tag rolls
/// independently per fault class.
#[derive(Debug, Clone, Copy)]
enum Domain {
    WriteErr = 1,
    ShortWrite = 2,
    SyncFail = 3,
    SimPanic = 4,
}

/// A seeded, rate-based fault schedule.
///
/// Rates are probabilities in `[0, 1]`; a rate of `0` disables that fault
/// class. Decisions are pure functions of `(seed, domain, tag, attempt)` —
/// see the module docs for why.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    /// Schedule seed; the same seed replays the same faults.
    pub seed: u64,
    /// Probability a store write attempt fails with an [`ErrorKind`]
    /// (deterministically one of `Interrupted`, `WouldBlock`, `Other` —
    /// transient kinds are retried by the writer, hard kinds abort the
    /// record).
    pub write_err: f64,
    /// Probability a store write attempt is torn short (partial write).
    pub short_write: f64,
    /// Probability an fsync attempt fails.
    pub sync_fail: f64,
    /// Probability a queued simulation deterministically panics on its
    /// worker thread (exercises the engine's catch-unwind + opaque-500
    /// path).
    pub sim_panic: f64,
}

impl FaultPlan {
    /// Builds the plan from [`FAULTS_ENV`] + [`FAULT_SEED_ENV`]; `None` when
    /// [`FAULTS_ENV`] is unset or names no positive rate. Unknown fault
    /// names warn on stderr and are ignored (a typo must degrade loudly).
    #[must_use]
    pub fn from_env() -> Option<FaultPlan> {
        let spec = std::env::var(FAULTS_ENV).ok()?;
        let seed = std::env::var(FAULT_SEED_ENV)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0xfe7c_4a11);
        let plan = Self::parse(&spec, seed, |msg| eprintln!("warning: {msg}"));
        plan.filter(FaultPlan::is_active)
    }

    /// Parses a `name=rate,name=rate` spec. Pure (warnings go through the
    /// callback) so the policy is unit-testable.
    #[must_use]
    pub fn parse(spec: &str, seed: u64, mut warn: impl FnMut(&str)) -> Option<FaultPlan> {
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        let mut any = false;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((name, rate)) = part.split_once('=') else {
                warn(&format!("{FAULTS_ENV}: ignoring malformed entry {part:?}"));
                continue;
            };
            let Ok(rate) = rate.trim().parse::<f64>() else {
                warn(&format!(
                    "{FAULTS_ENV}: ignoring non-numeric rate in {part:?}"
                ));
                continue;
            };
            let rate = rate.clamp(0.0, 1.0);
            match name.trim() {
                "store_write" => plan.write_err = rate,
                "store_short_write" => plan.short_write = rate,
                "store_sync" => plan.sync_fail = rate,
                "sim_panic" => plan.sim_panic = rate,
                other => {
                    warn(&format!("{FAULTS_ENV}: unknown fault class {other:?}"));
                    continue;
                }
            }
            any = true;
        }
        any.then_some(plan)
    }

    /// Whether any fault class has a positive rate.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.write_err > 0.0
            || self.short_write > 0.0
            || self.sync_fail > 0.0
            || self.sim_panic > 0.0
    }

    /// Whether the simulation for `tag` (the store key of a [`SimKey`])
    /// should deterministically panic on its worker thread.
    ///
    /// [`SimKey`]: crate::serve::engine::SimKey
    #[must_use]
    pub fn rolls_sim_panic(&self, tag: &str) -> bool {
        fires(
            self.roll(Domain::SimPanic, tag.as_bytes(), 0),
            self.sim_panic,
        )
    }

    /// The decision hash for `(seed, domain, tag, attempt)`.
    fn roll(&self, domain: Domain, tag: &[u8], attempt: u32) -> u64 {
        let mut h = FNV_OFFSET ^ self.seed;
        h = fnv1a64_extend(h, &[domain as u8]);
        h = fnv1a64_extend(h, tag);
        h = fnv1a64_extend(h, &attempt.to_le_bytes());
        // One final avalanche so low rates still see well-mixed high bits.
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

/// Whether a decision hash fires at `rate` (compares the hash's top 53 bits
/// against the rate, so `rate = 1.0` always fires and `0.0` never does).
#[allow(clippy::cast_precision_loss)]
fn fires(hash: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    ((hash >> 11) as f64) < rate * ((1u64 << 53) as f64)
}

impl IoFault for FaultPlan {
    fn on_write(&self, tag: &[u8], attempt: u32, remaining: usize) -> FaultAction {
        let err_roll = self.roll(Domain::WriteErr, tag, attempt);
        if fires(err_roll, self.write_err) {
            // Deterministically pick the error kind from spare hash bits:
            // two thirds transient (retryable), one third hard.
            return FaultAction::Fail(match err_roll % 3 {
                0 => ErrorKind::Interrupted,
                1 => ErrorKind::WouldBlock,
                _ => ErrorKind::Other,
            });
        }
        let short_roll = self.roll(Domain::ShortWrite, tag, attempt);
        if remaining > 1 && fires(short_roll, self.short_write) {
            // Tear the write somewhere strictly inside the remaining bytes.
            return FaultAction::ShortWrite(1 + (short_roll as usize) % (remaining - 1));
        }
        FaultAction::Proceed
    }

    fn on_sync(&self, tag: &[u8], attempt: u32) -> FaultAction {
        let roll = self.roll(Domain::SyncFail, tag, attempt);
        if fires(roll, self.sync_fail) {
            return FaultAction::Fail(if roll.is_multiple_of(2) {
                ErrorKind::Interrupted
            } else {
                ErrorKind::Other
            });
        }
        FaultAction::Proceed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan {
            seed: 7,
            write_err: 0.5,
            ..FaultPlan::default()
        };
        let b = FaultPlan { seed: 8, ..a };
        let pattern = |p: &FaultPlan| -> Vec<bool> {
            (0..64)
                .map(|i| matches!(p.on_write(b"key", i, 100), FaultAction::Fail(_)))
                .collect()
        };
        assert_eq!(pattern(&a), pattern(&a), "same seed must replay");
        assert_ne!(pattern(&a), pattern(&b), "different seeds must differ");
        // Rate 0 never fires; rate 1 always fires.
        let never = FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        };
        let always = FaultPlan {
            seed: 7,
            write_err: 1.0,
            ..FaultPlan::default()
        };
        for i in 0..64 {
            assert_eq!(never.on_write(b"key", i, 100), FaultAction::Proceed);
            assert!(matches!(
                always.on_write(b"key", i, 100),
                FaultAction::Fail(_)
            ));
        }
    }

    #[test]
    fn short_writes_stay_strictly_partial() {
        let plan = FaultPlan {
            seed: 3,
            short_write: 1.0,
            ..FaultPlan::default()
        };
        for remaining in 2..64 {
            match plan.on_write(b"k", 0, remaining) {
                FaultAction::ShortWrite(n) => assert!(n >= 1 && n < remaining, "{n}/{remaining}"),
                other => panic!("expected short write, got {other:?}"),
            }
        }
        // A single remaining byte cannot be torn.
        assert_eq!(plan.on_write(b"k", 0, 1), FaultAction::Proceed);
    }

    #[test]
    fn env_spec_parses_and_warns_on_garbage() {
        let mut warnings = Vec::new();
        let plan = FaultPlan::parse("store_write=0.25, store_sync=0.1,sim_panic=1.5", 42, |m| {
            warnings.push(m.to_string())
        })
        .expect("valid spec");
        assert!((plan.write_err - 0.25).abs() < 1e-12);
        assert!((plan.sync_fail - 0.1).abs() < 1e-12);
        assert!((plan.sim_panic - 1.0).abs() < 1e-12, "rates clamp to [0,1]");
        assert!(warnings.is_empty());

        let mut warnings = Vec::new();
        assert!(
            FaultPlan::parse("bogus=0.5", 1, |m| warnings.push(m.to_string())).is_none(),
            "unknown-only spec yields no plan"
        );
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("bogus"), "{warnings:?}");

        assert!(FaultPlan::parse("", 1, |_| {}).is_none());
        assert!(FaultPlan::parse("store_write=0.0", 1, |_| {})
            .expect("parses")
            .is_active()
            .eq(&false));
    }
}
