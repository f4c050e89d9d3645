//! `sambench compare A.json B.json`: the before/after (or A/A) table over
//! two files written by `sambench run`, judged by the bounds of
//! `BENCHMARK.json`.

use crate::json::Value;
use crate::stats::quartiles;
use std::path::Path;

/// Per-layer metrics that are counts of work and repeat exactly for a seed:
/// two files on the same seed must agree on them to the digit.
pub fn is_exact(name: &str) -> bool {
    const EXACT: [&str; 18] = [
        "custard.graph_nodes",
        "custard.graph_edges",
        "verify.diagnostics",
        "tensor.corpus_nnz",
        "exec.plan_channels",
        "exec.plan_forks",
        "exec.token_bytes",
        "sim.cycles",
        "sim.blocks",
        "sim.channels",
        "sim.tokens",
        "tiles.visited",
        "tiles.skipped",
        "tiles.executed",
        "tiles.spill_events",
        "tiles.dram_mb",
        "tiles.llb_peak_mb",
        "serve.compile_misses",
    ];
    EXACT.contains(&name) || name.starts_with("exec.tokens.") || name.starts_with("exec.node_tokens.")
}

fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `[q1, median, q3]`; a single run has no spread.
fn summary(values: &[f64]) -> Option<[f64; 3]> {
    match values {
        [] => None,
        [one] => Some([*one; 3]),
        many => quartiles(many),
    }
}

fn values(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let runs = file.get("workloads").and_then(|w| w.get(workload)).and_then(|w| w.get("end_to_end"));
    let runs = runs.and_then(|e| e.get(metric)).and_then(Value::as_array).unwrap_or(&[]);
    runs.iter().filter_map(Value::as_f64).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judges B against A for one metric. `worse`: B's median is worse than
/// A's by more than `bound` of A's. `unresolved`: the interquartile spread
/// of either side is wider than `bound` of its median, unless every run of
/// B beats every run of A.
pub fn judge(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> Option<(Verdict, [f64; 3], [f64; 3])> {
    let (qa, qb) = (summary(a)?, summary(b)?);
    let worse = if lower_is_better { qb[1] > qa[1] * (1.0 + bound) } else { qb[1] < qa[1] * (1.0 - bound) };
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
    let b_always_better = a.iter().all(|x| b.iter().all(|y| if lower_is_better { y < x } else { y > x }));
    let verdict = if worse {
        Verdict::Worse
    } else if spread(qa).max(spread(qb)) > bound && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Some((verdict, qa, qb))
}

/// Prints the table; `Ok(true)` when nothing gated is worse and every exact
/// count agrees. A workload the files hold but `BENCHMARK.json` does not list
/// is judged and printed like the others, marked `not gated`, and cannot
/// fail the comparison.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let (bench, a, b) = (read(&manifest)?, read(a_path)?, read(b_path)?);
    let list = |key: &str| {
        bench.get(key).and_then(Value::as_array).ok_or(format!("BENCHMARK.json: no `{key}` list"))
    };
    let name_of = |v: &Value| v.get("name").and_then(Value::as_str).map(str::to_string);
    let gated: Vec<String> = list("workloads")?.iter().filter_map(name_of).collect();
    let in_a = a.get("workloads").and_then(Value::as_object).unwrap_or(&[]);
    let ungated = in_a.iter().map(|(name, _)| name.clone()).filter(|name| !gated.contains(name));
    let workloads: Vec<String> = gated.iter().cloned().chain(ungated).collect();
    let mut passed = true;

    println!("A = {}   B = {}   ratio = B/A (base A)", a_path.display(), b_path.display());
    println!(
        "{:<20} {:<14} {:>11} {:>23} {:>11} {:>23} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "ratio", "bound"
    );
    for workload in &workloads {
        let is_gated = gated.contains(workload);
        for metric in list("end_to_end")? {
            let name = name_of(metric).ok_or("BENCHMARK.json: end_to_end entry without a name")?;
            let bound = metric.get("bound").and_then(Value::as_f64).ok_or(format!("{name}: no bound"))?;
            let lower = metric.get("better").and_then(Value::as_str) == Some("lower");
            let Some((verdict, qa, qb)) =
                judge(&values(&a, workload, &name), &values(&b, workload, &name), lower, bound)
            else {
                println!("{workload:<20} {name:<14} missing from one of the files");
                passed &= !is_gated;
                continue;
            };
            passed &= verdict != Verdict::Worse || !is_gated;
            println!(
                "{workload:<20} {name:<14} {:>11.4} {:>11.4}..{:<10.4} {:>11.4} {:>11.4}..{:<10.4} {:>7.4} {bound:>6}  {}{}",
                qa[1],
                qa[0],
                qa[2],
                qb[1],
                qb[0],
                qb[2],
                qb[1] / qa[1],
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
                if is_gated { "" } else { " (not gated)" }
            );
        }
    }

    let seed = |file: &Value| file.get("seed").and_then(Value::as_f64);
    if seed(&a) != seed(&b) {
        println!("exact counts: not compared, the files were run on different seeds");
        return Ok(false);
    }
    let mut mismatches = 0;
    for workload in &workloads {
        let layer = |file: &Value, name: &str| {
            file.get("workloads")?.get(workload)?.get("per_layer")?.get(name)?.as_f64()
        };
        for name in list("per_layer")?.iter().filter_map(name_of).filter(|n| is_exact(n)) {
            let (va, vb) = (layer(&a, &name), layer(&b, &name));
            if va != vb || va.is_none() {
                println!("exact count mismatch: {workload} {name}: A {va:?}, B {vb:?}");
                mismatches += 1;
            }
        }
    }
    println!("exact counts: {mismatches} mismatches");
    Ok(passed && mismatches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STEADY: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn equal_runs_are_ok_and_a_regression_past_the_bound_is_worse() {
        let (verdict, qa, _) = judge(&STEADY, &STEADY, true, 0.1).unwrap();
        assert_eq!(verdict, Verdict::Ok);
        assert_eq!(qa[1], 100.0);
        let slower: Vec<f64> = STEADY.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&STEADY, &slower, true, 0.1).unwrap().0, Verdict::Worse);
        // The same change is a gain where higher is better.
        assert_eq!(judge(&STEADY, &slower, false, 0.1).unwrap().0, Verdict::Ok);
        assert_eq!(judge(&slower, &STEADY, false, 0.1).unwrap().0, Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_always_wins() {
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &noisy, true, 0.1).unwrap().0, Verdict::Unresolved);
        let fast = [50.0, 60.0, 55.0, 52.0, 58.0];
        assert_eq!(judge(&noisy, &fast, true, 0.1).unwrap().0, Verdict::Ok);
        assert!(judge(&[], &fast, true, 0.1).is_none());
        assert_eq!(judge(&[100.0], &[104.0], true, 0.1).unwrap().0, Verdict::Ok);
    }

    #[test]
    fn work_counts_are_exact_and_timings_are_not() {
        assert!(is_exact("exec.tokens.spmv") && is_exact("exec.node_tokens.scan") && is_exact("sim.cycles"));
        assert!(!is_exact("exec.run_ms.spmv") && !is_exact("steal.tasks") && !is_exact("serve.plan_hits"));
    }
}
