//! Property-based tests (proptest) over the core data structures and the
//! end-to-end invariants of randomly-generated workloads.

use proptest::prelude::*;

use fetchmech::isa::{Layout, LayoutOptions, OpClass};
use fetchmech::pipeline::MachineModel;
use fetchmech::workloads::{InputId, Workload, WorkloadSpec};
use fetchmech::{simulate, SchemeKind};

// ---- json ----------------------------------------------------------------

use fetchmech::json::{self, Value};

/// Strings over the full scalar-value range, including control characters
/// (exercises `\uXXXX` escaping) and astral-plane code points.
fn arb_json_string() -> BoxedStrategy<String> {
    proptest::collection::vec(0u32..0x11_0000, 0..6)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
        .boxed()
}

fn arb_json_leaf() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (0u32..2).prop_map(|b| Value::Bool(b == 1)).boxed(),
        (0u64..u64::MAX).prop_map(Value::Uint).boxed(),
        (i64::MIN..0i64).prop_map(Value::Int).boxed(),
        (-1e300f64..1e300).prop_map(Value::Num).boxed(),
        arb_json_string().prop_map(Value::Str).boxed(),
    ]
    .boxed()
}

/// Bounded-depth recursive JSON documents. Object keys get an index suffix
/// so they are always distinct — the parser now rejects duplicates.
fn arb_json(depth: u32) -> BoxedStrategy<Value> {
    if depth == 0 {
        return arb_json_leaf();
    }
    let inner = arb_json(depth - 1);
    prop_oneof![
        arb_json_leaf(),
        proptest::collection::vec(arb_json(depth - 1), 0..4)
            .prop_map(Value::Array)
            .boxed(),
        (arb_json_string(), proptest::collection::vec(inner, 0..4))
            .prop_map(|(prefix, vals)| {
                Value::Object(
                    vals.into_iter()
                        .enumerate()
                        .map(|(i, v)| (format!("{prefix}{i}"), v))
                        .collect(),
                )
            })
            .boxed(),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `render ∘ parse` is a fixed point on rendered documents. (Value-level
    /// equality would be too strong: `Num(2.0)` renders as `2`, which
    /// reparses as `Uint(2)` — same document, different tag.)
    #[test]
    fn json_render_parse_is_a_fixed_point(v in arb_json(3)) {
        let rendered = v.render();
        let reparsed = json::parse(&rendered).expect("rendered JSON must reparse");
        prop_assert_eq!(reparsed.render(), rendered.clone());
        let pretty = v.pretty();
        let from_pretty = json::parse(&pretty).expect("pretty JSON must reparse");
        prop_assert_eq!(from_pretty.render(), rendered);
    }

    /// The parser never panics and never loops on arbitrary short inputs —
    /// it either produces a value or an error with an in-bounds position.
    #[test]
    fn json_parse_is_total_on_arbitrary_bytes(s in arb_json_string()) {
        match json::parse(&s) {
            Ok(v) => {
                let r = v.render();
                prop_assert_eq!(json::parse(&r).expect("reparse").render(), r);
            }
            Err(e) => prop_assert!(e.pos <= s.len()),
        }
    }
}

// ---- random workloads ----------------------------------------------------

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        1u64..5000,
        1usize..5,
        0.0f64..0.4,
        0.0f64..0.3,
        1usize..8,
        2usize..8,
        1.5f64..40.0,
    )
        .prop_map(|(seed, funcs, hammock, loop_p, hlen, blen, trips)| {
            let mut s = WorkloadSpec::base_int("prop", seed);
            s.funcs = funcs;
            s.segments_per_func = (2, 8);
            s.hammock_prob = hammock;
            s.loop_prob = loop_p;
            s.hammock_len = (1, hlen);
            s.block_len = (1, blen);
            s.mean_trips = trips;
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any valid spec generates a valid program whose executed trace is
    /// address-linked and stays within the laid-out image.
    #[test]
    fn generated_traces_are_linked_and_mapped(spec in arb_spec()) {
        let w = Workload::generate(spec);
        let layout = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let trace: Vec<_> = w.executor(&layout, InputId::TEST, 3_000).collect();
        for pair in trace.windows(2) {
            prop_assert_eq!(pair[0].next_pc, pair[1].addr);
        }
        for inst in &trace {
            prop_assert!(layout.index_of(inst.addr).is_some());
        }
    }

    /// Fetch never delivers more than the issue rate, never delivers
    /// out of order, and the pipeline retires everything, on a random
    /// workload under every scheme.
    #[test]
    fn random_workloads_simulate_cleanly(spec in arb_spec()) {
        let w = Workload::generate(spec);
        let machine = MachineModel::p14();
        let layout = Layout::natural(&w.program, LayoutOptions::new(machine.block_bytes))
            .expect("layout");
        for scheme in SchemeKind::ALL {
            let trace: Vec<_> = w.executor(&layout, InputId::TEST, 4_000).collect();
            let r = simulate(&machine, scheme, trace);
            prop_assert_eq!(r.retired, 4_000);
            prop_assert!(r.eir() <= f64::from(machine.issue_rate) + 1e-9);
        }
    }

    /// Reordering preserves semantics on random workloads: the projected
    /// body-instruction stream is unchanged.
    #[test]
    fn reordering_preserves_semantics_on_random_workloads(spec in arb_spec()) {
        use fetchmech::compiler::{reorder, Profile, TraceSelectConfig};
        let w = Workload::generate(spec);
        let profile = Profile::collect(&w, &[InputId(0), InputId(1)], 3_000);
        let r = reorder(&w.program, &profile, &TraceSelectConfig::default());
        let natural = Layout::natural(&w.program, LayoutOptions::new(16)).expect("layout");
        let optimized = r.layout(16).expect("layout");
        let rw = Workload {
            spec: w.spec.clone(),
            program: r.program.clone(),
            behaviors: w.behaviors.clone(),
        };
        let project = |w: &Workload, l: &Layout| -> Vec<_> {
            w.executor(l, InputId::TEST, 3_000)
                .filter(|i| i.ctrl.is_none() && i.op != OpClass::Nop)
                .map(|i| (i.op, i.dest, i.srcs))
                .collect()
        };
        let a = project(&w, &natural);
        let b = project(&rw, &optimized);
        let n = a.len().min(b.len());
        prop_assert_eq!(&a[..n], &b[..n]);
    }

    /// The perfect scheme dominates every hardware scheme's EIR on random
    /// workloads (it is the upper bound by construction). Tolerance note:
    /// during the cold-start prefix, banked/collapsing prefetch the
    /// *predicted-successor* block while perfect prefetches only the next
    /// sequential block, so on branchy code a hardware scheme can edge ahead
    /// by a fraction of a percent until the cache warms; longer traces and a
    /// 1% tolerance absorb that startup artifact.
    #[test]
    fn perfect_is_an_upper_bound(spec in arb_spec()) {
        use fetchmech::sim::measure_eir;
        let w = Workload::generate(spec);
        let machine = MachineModel::p14();
        let layout = Layout::natural(&w.program, LayoutOptions::new(machine.block_bytes))
            .expect("layout");
        let eir = |scheme| {
            let trace: Vec<_> = w.executor(&layout, InputId::TEST, 12_000).collect();
            measure_eir(&machine, scheme, trace).eir()
        };
        let perfect = eir(SchemeKind::Perfect);
        for scheme in SchemeKind::HARDWARE {
            let v = eir(scheme);
            prop_assert!(
                v <= perfect * 1.01 + 0.02,
                "{} EIR {} exceeds perfect {}", scheme, v, perfect
            );
        }
    }
}
