//! # fetchmech-bpred
//!
//! The branch-target buffer (BTB) used by every fetch mechanism in the
//! ISCA '95 reproduction.
//!
//! The paper's predictor is a 1024-entry, direct-mapped BTB with 2-bit
//! saturating counters; branch target addresses are cached per entry, and the
//! buffer is interleaved by the number of instructions in a cache block so
//! that one fetch can query a prediction for every slot of the fetched block
//! simultaneously (Figure 5). [`Btb`] models the storage and counters. The
//! interleaving is structural only (a monolithic array indexed per word
//! behaves identically), so it has no parameter here; the fetch unit walks
//! the comparator chain of Figure 5 itself, because its chain also consults
//! the direction predictor and the return-address stack.
//!
//! # Examples
//!
//! ```
//! use fetchmech_bpred::Btb;
//! use fetchmech_isa::Addr;
//!
//! let mut btb = Btb::new(1024);
//! let branch = Addr::new(0x1000);
//! let target = Addr::new(0x2000);
//!
//! // Cold: predicted not-taken (a BTB miss).
//! assert!(!btb.predict(branch, true).taken);
//!
//! // Teach it the branch; a hit with a warm counter predicts taken.
//! btb.update(branch, true, true, target);
//! let p = btb.predict(branch, true);
//! assert!(p.taken);
//! assert_eq!(p.target, Some(target));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub(crate) mod btb;
pub(crate) mod gshare;

pub use btb::{Btb, BtbStats, Prediction};
pub use gshare::{Gshare, PredictorKind, Tournament};
