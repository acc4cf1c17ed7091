//! # fetchmech-pipeline
//!
//! The out-of-order execution substrate for the `fetchmech` reproduction of
//! the ISCA '95 fetch-mechanisms paper:
//!
//! * [`MachineModel`] — the P14 / P18 / P112 configurations of Table 1,
//! * [`OooCore`] — a full-Tomasulo scheduling window with tag renaming,
//!   fully-pipelined functional units, and a reorder buffer,
//! * [`FetchPacket`] / [`TraceCursor`] / [`BlockCursor`] — what the fetch
//!   mechanisms (implemented in the `fetchmech` core crate) consume and
//!   deliver,
//! * [`SchemeKind`] — the five fetch-alignment mechanisms of §3, hosted here
//!   (rather than in the core crate) so analysis layers can reason about
//!   scheme legality without depending on the simulator.
//!
//! # Examples
//!
//! ```
//! use fetchmech_pipeline::{MachineModel, OooCore};
//!
//! let machine = MachineModel::p14();
//! assert_eq!(machine.issue_rate, 4);
//! let core = OooCore::new(machine.ooo_config());
//! assert!(core.drained());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub(crate) mod fetch;
pub(crate) mod machine;
pub(crate) mod ooo;
pub mod scheme;

pub use fetch::{BlockCursor, FetchPacket, FetchedInst, TraceCursor};
pub use machine::MachineModel;
pub use ooo::{OooConfig, OooCore, OooStats, Resolved, StreamCore};
pub use scheme::{ParseSchemeError, SchemeKind};
