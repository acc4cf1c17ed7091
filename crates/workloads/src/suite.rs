//! The named benchmark suite: synthetic stand-ins for the paper's nine
//! integer benchmarks (six SPECint92 plus `mpeg_play`, `bison`, `flex`) and
//! six SPECfp92 benchmarks.
//!
//! Each spec is calibrated so the *shape* of its dynamic branch stream tracks
//! what the paper reports for the real benchmark — most importantly the
//! Table 2 trend of intra-block taken branches versus cache-block size, which
//! is governed here by hammock density (`hammock_prob`) and skip distance
//! (`hammock_len`), and the integer/floating-point contrast in run length
//! (loop dominance and trip counts). Absolute numbers are not calibrated;
//! DESIGN.md records the substitution rationale.

use crate::spec::{Workload, WorkloadSpec};

/// Names of the integer benchmarks, in the paper's order.
pub const INT_NAMES: [&str; 9] = [
    "bison",
    "compress",
    "eqntott",
    "espresso",
    "flex",
    "gcc",
    "li",
    "mpeg_play",
    "sc",
];

/// Names of the floating-point benchmarks, in the paper's order.
pub const FP_NAMES: [&str; 6] = ["doduc", "mdljdp2", "nasa7", "ora", "tomcatv", "wave5"];

/// Returns the spec for a named benchmark, or `None` for unknown names.
#[must_use]
pub(crate) fn spec_for(name: &str) -> Option<WorkloadSpec> {
    let mut s = match name {
        // ---- integer ----------------------------------------------------
        "bison" => {
            // Parser tables: moderate hammocks, short-to-medium skips.
            let mut s = WorkloadSpec::base_int("bison", 0xb150);
            s.hammock_prob = 0.26;
            s.hammock_len = (1, 5);
            s.mean_trips = 8.0;
            s
        }
        "compress" => {
            // Tight compression kernel: very short skips, so many taken
            // branches are intra-block even with 16 B blocks (Table 2: 14.6%).
            let mut s = WorkloadSpec::base_int("compress", 0xc033);
            s.block_len = (2, 5);
            s.hammock_prob = 0.30;
            s.hammock_len = (1, 3);
            s.mean_trips = 5.0;
            s
        }
        "eqntott" => {
            // Extremely branchy bit-vector code; medium skips push the
            // intra-block fraction up sharply at 32 B and 64 B.
            let mut s = WorkloadSpec::base_int("eqntott", 0xe480);
            s.block_len = (1, 4);
            s.hammock_prob = 0.35;
            s.hammock_len = (2, 7);
            s.taken_prob = (0.3, 0.9);
            s.mean_trips = 5.0;
            s
        }
        "espresso" => {
            let mut s = WorkloadSpec::base_int("espresso", 0xe59e);
            s.block_len = (2, 5);
            s.hammock_prob = 0.30;
            s.hammock_len = (3, 9);
            s.mean_trips = 7.0;
            s
        }
        "flex" => {
            let mut s = WorkloadSpec::base_int("flex", 0xf1e8);
            s.hammock_prob = 0.18;
            s.hammock_len = (6, 12);
            s.loop_prob = 0.20;
            s.mean_trips = 12.0;
            s
        }
        "gcc" => {
            // The big one: many functions, deep call graph, mixed shapes.
            let mut s = WorkloadSpec::base_int("gcc", 0x6cc0);
            s.funcs = 14;
            s.segments_per_func = (8, 24);
            s.hammock_prob = 0.28;
            s.hammock_len = (2, 10);
            s.call_prob = 0.18;
            s.mean_trips = 5.0;
            s
        }
        "li" => {
            // Lisp interpreter: call-dominated, few hammocks, short loops.
            let mut s = WorkloadSpec::base_int("li", 0x0115);
            s.hammock_prob = 0.10;
            s.hammock_len = (6, 12);
            s.call_prob = 0.25;
            s.funcs = 12;
            s.mean_trips = 4.0;
            s
        }
        "mpeg_play" => {
            // Media kernel: loopier than the other integer codes, longer
            // blocks, memory heavy; lowest intra-block fraction at 64 B.
            let mut s = WorkloadSpec::base_int("mpeg_play", 0x3be6);
            s.block_len = (4, 9);
            s.hammock_prob = 0.05;
            s.hammock_len = (3, 8);
            s.diamond_prob = 0.20;
            s.loop_prob = 0.30;
            s.mean_trips = 20.0;
            s.mem_ratio = 0.35;
            s
        }
        "sc" => {
            let mut s = WorkloadSpec::base_int("sc", 0x5c5c);
            s.hammock_prob = 0.20;
            s.hammock_len = (6, 12);
            s.mean_trips = 6.0;
            s
        }
        // ---- floating point ---------------------------------------------
        "doduc" => {
            // The branchiest FP code in the suite.
            let mut s = WorkloadSpec::base_fp("doduc", 0xd0d0);
            s.hammock_prob = 0.15;
            s.hammock_len = (2, 8);
            s.diamond_prob = 0.10;
            s.mean_trips = 15.0;
            s.block_len = (5, 10);
            s
        }
        "mdljdp2" => {
            // Long forward skips inside big loop bodies: almost no
            // intra-block branches at 16 B, two-thirds at 64 B (Table 2).
            let mut s = WorkloadSpec::base_fp("mdljdp2", 0x3d1d);
            s.hammock_prob = 0.50;
            s.loop_prob = 0.30;
            s.hammock_len = (2, 6);
            s.mean_trips = 30.0;
            s.block_len = (3, 8);
            s.min_loop_insts = 32;
            s.taken_prob = (0.5, 0.9);
            s
        }
        "nasa7" => {
            // Pure loop nest: essentially no intra-block branches ever.
            let mut s = WorkloadSpec::base_fp("nasa7", 0x4a57);
            s.hammock_prob = 0.0;
            s.diamond_prob = 0.02;
            s.loop_prob = 0.60;
            s.mean_trips = 80.0;
            s.block_len = (10, 16);
            s.min_loop_insts = 48;
            s
        }
        "ora" => {
            let mut s = WorkloadSpec::base_fp("ora", 0x08a0);
            s.hammock_prob = 0.25;
            s.hammock_len = (1, 4);
            s.block_len = (4, 10);
            s.mean_trips = 25.0;
            s
        }
        "tomcatv" => {
            let mut s = WorkloadSpec::base_fp("tomcatv", 0x70c4);
            s.hammock_prob = 0.06;
            s.hammock_len = (5, 10);
            s.loop_prob = 0.55;
            s.mean_trips = 60.0;
            s.block_len = (10, 16);
            s.min_loop_insts = 40;
            s
        }
        "wave5" => {
            let mut s = WorkloadSpec::base_fp("wave5", 0x3a7e);
            s.hammock_prob = 0.40;
            s.hammock_len = (1, 4);
            s.mean_trips = 30.0;
            s.block_len = (3, 8);
            s.taken_prob = (0.4, 0.9);
            s
        }
        _ => return None,
    };
    s.name = leak_check(name);
    Some(s)
}

// `spec_for` sets names from the static tables below so the returned spec
// borrows a `'static` name without allocation.
fn leak_check(name: &str) -> &'static str {
    INT_NAMES
        .iter()
        .chain(FP_NAMES.iter())
        .find(|&&n| n == name)
        .copied()
        .expect("name checked by caller")
}

/// Generates one named benchmark.
#[must_use]
pub fn benchmark(name: &str) -> Option<Workload> {
    spec_for(name).map(Workload::generate)
}

/// Generates the nine integer benchmarks.
#[must_use]
pub(crate) fn int_suite() -> Vec<Workload> {
    INT_NAMES
        .iter()
        .map(|n| benchmark(n).expect("known name"))
        .collect()
}

/// Generates the six floating-point benchmarks.
#[must_use]
pub(crate) fn fp_suite() -> Vec<Workload> {
    FP_NAMES
        .iter()
        .map(|n| benchmark(n).expect("known name"))
        .collect()
}

/// Generates the full fifteen-benchmark suite, integer first.
#[must_use]
pub fn full_suite() -> Vec<Workload> {
    let mut v = int_suite();
    v.extend(fp_suite());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadClass;

    #[test]
    fn all_names_resolve() {
        for n in INT_NAMES.iter().chain(FP_NAMES.iter()) {
            let w = benchmark(n).unwrap_or_else(|| panic!("{n} missing"));
            assert_eq!(w.spec.name, *n);
        }
        assert!(benchmark("quake").is_none());
    }

    #[test]
    fn classes_are_correct() {
        for w in int_suite() {
            assert_eq!(w.spec.class, WorkloadClass::Int, "{}", w.spec.name);
        }
        for w in fp_suite() {
            assert_eq!(w.spec.class, WorkloadClass::Fp, "{}", w.spec.name);
        }
    }

    #[test]
    fn suite_has_fifteen_distinct_programs() {
        let suite = full_suite();
        assert_eq!(suite.len(), 15);
        for pair in suite.windows(2) {
            assert_ne!(pair[0].program, pair[1].program);
        }
    }

    #[test]
    fn nasa7_has_no_hammocks() {
        let s = spec_for("nasa7").expect("known");
        assert_eq!(s.hammock_prob, 0.0);
    }
}
