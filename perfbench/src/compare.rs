//! `perfbench compare PARENT_DIR CHANGE_DIR`: the verdict on a change.
//!
//! Each directory holds one `<workload>.jsonl` file per workload, with the
//! result lines of that side's runs in seed order (other lines are
//! ignored), so run `i` of the parent pairs with run `i` of the change.
//! For every (metric, workload) the command prints each side's median and
//! quartiles, the pairs the change won, and a verdict:
//!
//! * `improved` — the change wins at least nine tenths of the pairs (ties
//!   count for neither side) and the medians differ, in the better
//!   direction, by more than the parent's own quartile spread;
//! * `unresolved` — the spread of either side is wider than the metric's
//!   bound, and not every change run reads better than every parent run;
//! * `regressed` — the change's median is worse than the parent's by more
//!   than the bound (for a metric without a bound: the parent wins nine
//!   tenths of the pairs by more than its spread);
//! * `no worse` — none of the above.
//!
//! Bounds and directions come from `BENCHMARK.json` in the current
//! directory.

use std::path::Path;
use std::process::ExitCode;

use fetchmech_repro::json::{parse, Value};

use crate::stats::{median, quartiles};

struct MetricSpec {
    name: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

fn specs(bench: &Value) -> Vec<MetricSpec> {
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        let Some(Value::Array(items)) = bench.get(section) else {
            continue;
        };
        for item in items {
            let (Some(name), Some(better)) = (
                item.get("name").and_then(Value::as_str),
                item.get("better").and_then(Value::as_str),
            ) else {
                continue;
            };
            out.push(MetricSpec {
                name: name.to_string(),
                lower_is_better: better == "lower",
                bound: item.get("bound").and_then(Value::as_f64),
            });
        }
    }
    out
}

/// Every result line's metrics in one file, in run order.
fn runs(path: &Path) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .filter_map(|l| parse(l).ok())
        .collect()
}

fn values(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// The verdict for one (metric, workload) pair; see the module docs.
fn verdict(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> (String, usize, usize) {
    let better = |a: f64, b: f64| if spec.lower_is_better { a < b } else { a > b };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let losses = (0..pairs).filter(|&i| better(parent[i], change[i])).count();
    let (mp, mc) = (median(parent), median(change));
    let [p1, _, p3] = quartiles(parent);
    let [c1, _, c3] = quartiles(change);
    let gain = if spec.lower_is_better {
        mp - mc
    } else {
        mc - mp
    };
    let spread_p = p3 - p1;
    let nine_tenths = |n: usize| pairs > 0 && n * 10 >= pairs * 9;
    let all_better = !parent.is_empty()
        && !change.is_empty()
        && change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let v = if nine_tenths(wins) && gain > spread_p {
        "improved"
    } else if all_better {
        "no worse"
    } else if let Some(bound) = spec.bound {
        let scale = mp.abs().max(f64::MIN_POSITIVE);
        if spread_p / scale > bound || (c3 - c1) / mc.abs().max(f64::MIN_POSITIVE) > bound {
            "unresolved"
        } else if -gain > bound * scale {
            "regressed"
        } else {
            "no worse"
        }
    } else if nine_tenths(losses) && -gain > spread_p {
        "regressed"
    } else {
        "no worse"
    };
    (v.to_string(), wins, pairs)
}

pub fn main(args: &[String]) -> ExitCode {
    let [parent_dir, change_dir] = args else {
        eprintln!("usage: perfbench compare PARENT_DIR CHANGE_DIR");
        return ExitCode::from(2);
    };
    let bench = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| parse(&t).map_err(|e| e.to_string()))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench compare: cannot read BENCHMARK.json: {e}");
            return ExitCode::from(2);
        }
    };
    let specs = specs(&bench);
    let mut regressed = false;
    println!(
        "{:<34} {:<11} {:>28} {:>28} {:>7}  verdict",
        "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for workload in crate::WORKLOADS {
        let file = format!("{workload}.jsonl");
        let (p_runs, c_runs) = (
            runs(&Path::new(parent_dir).join(&file)),
            runs(&Path::new(change_dir).join(&file)),
        );
        if p_runs.is_empty() && c_runs.is_empty() {
            continue;
        }
        for spec in &specs {
            let (p, c) = (values(&p_runs, &spec.name), values(&c_runs, &spec.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let (v, wins, pairs) = verdict(spec, &p, &c);
            regressed |= v == "regressed";
            let [p1, _, p3] = quartiles(&p);
            let [c1, _, c3] = quartiles(&c);
            println!(
                "{:<34} {:<11} {:>28} {:>28} {:>7}  {v}",
                spec.name,
                workload,
                format!("{:.4} [{p1:.4}, {p3:.4}]", median(&p)),
                format!("{:.4} [{c1:.4}, {c3:.4}]", median(&c)),
                format!("{wins}/{pairs}"),
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: "wall_s".to_string(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 10.0 + f64::from(i) * 0.01).collect();
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.5).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(verdict(&spec(Some(0.1)), &parent, &faster).0, "improved");
        assert_eq!(verdict(&spec(Some(0.1)), &parent, &slower).0, "regressed");
        assert_eq!(verdict(&spec(Some(0.1)), &parent, &same).0, "no worse");
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 5.0 } else { 15.0 })
            .collect();
        assert_eq!(verdict(&spec(Some(0.1)), &noisy, &noisy).0, "unresolved");
        assert_eq!(verdict(&spec(None), &parent, &slower).0, "regressed");
    }
}
