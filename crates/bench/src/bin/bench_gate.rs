//! The benchmark regression gate for CI's `bench-smoke` job.
//!
//! Reads the freshly measured `BENCH_exec.json` (written by
//! `cargo bench -p sam-bench --bench exec_backends -- --save-json`, plus
//! the memory-counter group `fig15 --smoke` merges in) and the checked-in
//! `BENCH_baseline.json`, and fails (exit code 1) when any fast-backend
//! serial benchmark (`fast` or `fast-skip`) regresses more than
//! [`THRESHOLD`]× against its baseline. Cycle-backend numbers are reported
//! but not gated against the baseline: they measure the simulator's model,
//! and wall-clock comparisons across CI runs are too noisy. Thread-pool
//! numbers are instead gated *intra-run*: within a single benchmark
//! session the work-stealing `threads4` entry must stay within
//! [`PARALLEL_THRESHOLD`]× of `serial` on the [`PARALLEL_GROUPS`] kernels
//! — parallel execution must never lose to serial. The service
//! `throughput` group (from `throughput --save-json`) is gated intra-run
//! the same way: warm rounds must stay within [`WARM_THRESHOLD`]× of the
//! cold round, the warm plan-cache hit rate must clear
//! [`WARM_HIT_RATE_FLOOR`], and the instrumented service must stay within
//! [`TELEMETRY_THRESHOLD`]× of a metrics-disabled one (the "telemetry is
//! cheap" invariant).
//!
//! Kernels (or individual entries) present in the current run but absent
//! from the baseline are reported as `new` and ignored — a freshly added
//! benchmark or counter must not fail the gate before its baseline lands.
//! A *gated* benchmark that exists in the baseline but vanished from the
//! current run still fails: that is a lost measurement, not a new one.
//!
//! Usage: `bench_gate [current.json] [baseline.json]` (defaults to
//! `BENCH_exec.json` and `BENCH_baseline.json` at the workspace root).

use sam_bench::workspace_root;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Maximum tolerated slowdown of a gated benchmark against its baseline.
const THRESHOLD: f64 = 2.0;

/// The gated backends: serial fast-mode rows, where wall-clock noise on a
/// dedicated step is smallest and the skip fusion must keep paying.
const GATED: &[&str] = &["fast", "fast-skip"];

/// Intra-run tracing-overhead bound: a counters-enabled serial run may cost
/// at most this much relative to the untraced run in the same benchmark
/// session.
const OVERHEAD_THRESHOLD: f64 = 1.10;

/// Intra-run bound for the `NullSink` path: tracing disabled must be
/// indistinguishable from `run` up to measurement noise.
const NULL_THRESHOLD: f64 = 1.05;

/// Intra-run bound for the work-stealing scheduler: a `threads4` run may
/// cost at most this much relative to the serial run measured in the same
/// benchmark session. The gate reads the `parallel_speedup` metric (the
/// best paired serial/threads4 wall-clock ratio over k rounds, recorded by
/// the bench next to its timings) rather than the mean-of-samples timing
/// entries: on a loaded single-core runner even two identical backends
/// jitter by several percent, while the best paired ratio only drops below
/// 1.0 when threads4 loses in *every* round — the signature of a real
/// scheduling regression. The scheduler clamps its worker count to the
/// host's available parallelism (delegating outright to the serial driver
/// when one worker remains), so on a single-core runner this asserts the
/// overhead is zero; on a multi-core runner a real speedup only widens the
/// margin.
const PARALLEL_THRESHOLD: f64 = 1.05;

/// The parallel-comparison groups the intra-run `parallel ≤ serial` check
/// covers (the flagship Table-1 kernels).
const PARALLEL_GROUPS: &[&str] = &["exec_spmv_parallel", "exec_spmm_parallel", "exec_mttkrp_parallel"];

/// Intra-run bound for the service throughput bench: warm rounds (plan and
/// compile caches hot) may run at most this much slower than the best cold
/// round measured in the same session. Like the parallel gate, this reads a
/// best-of ratio (`warm_speedup` = warm/cold qps), so it only trips when
/// the resident caches genuinely stop paying.
const WARM_THRESHOLD: f64 = 1.05;

/// Minimum plan-cache hit rate over the throughput bench's warm rounds:
/// a resident service replaying a fixed workload must be almost pure hits.
const WARM_HIT_RATE_FLOOR: f64 = 0.9;

/// Intra-run bound on the service telemetry: a fully instrumented service
/// may cost at most this much relative to a metrics-disabled one. Like the
/// other overhead gates this reads a best-paired ratio (the instrumented
/// service only "loses" if it loses every alternating round), so scheduler
/// noise cannot fake an overhead.
const TELEMETRY_THRESHOLD: f64 = 1.05;

/// Parses the two-level `{"group": {"bench": number, ...}, ...}` JSON the
/// bench harness emits. A hand-rolled scanner: the vendored serde stub has
/// no serde_json, and the schema is fixed.
fn parse(text: &str) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    let mut chars = text.char_indices().peekable();
    let mut group: Option<String> = None;
    let err = |pos: usize, what: &str| format!("byte {pos}: {what}");

    fn read_string(
        text: &str,
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        let Some((start, '"')) = chars.next() else {
            return Err("expected a string".to_string());
        };
        for (i, c) in chars.by_ref() {
            match c {
                '\\' => return Err(format!("byte {i}: escapes are not supported")),
                '"' => return Ok(text[start + 1..i].to_string()),
                _ => {}
            }
        }
        Err("unterminated string".to_string())
    }

    while let Some(&(i, c)) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' | '{' | ',' | ':' => {
                chars.next();
            }
            '}' => {
                chars.next();
                group = match group {
                    Some(_) => None,
                    None => return Ok(out),
                };
            }
            '"' => {
                let key = read_string(text, &mut chars)?;
                // A key either opens a group object or maps to a number.
                let mut lookahead = chars.clone();
                while let Some(&(_, c2)) = lookahead.peek() {
                    match c2 {
                        ' ' | '\t' | '\n' | '\r' | ':' => {
                            lookahead.next();
                        }
                        '{' => {
                            group = Some(key.clone());
                            out.entry(key).or_default();
                            break;
                        }
                        _ => {
                            let g = group.clone().ok_or_else(|| err(i, "number outside a group"))?;
                            // Consume the skipped whitespace/colon for real.
                            chars = lookahead.clone();
                            let start = chars.peek().map(|&(p, _)| p).unwrap_or(text.len());
                            let mut end = start;
                            while let Some(&(p, c3)) = chars.peek() {
                                if c3.is_ascii_digit() || c3 == '.' || c3 == '-' || c3 == 'e' || c3 == '+' {
                                    end = p + c3.len_utf8();
                                    chars.next();
                                } else {
                                    break;
                                }
                            }
                            let ns: f64 =
                                text[start..end].parse().map_err(|_| err(start, "malformed number"))?;
                            out.entry(g).or_default().insert(key.clone(), ns);
                            break;
                        }
                    }
                }
            }
            _ => return Err(err(i, "unexpected character")),
        }
    }
    Err("unterminated object".to_string())
}

fn load(path: &Path) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = workspace_root();
    let current_path = args.first().map(PathBuf::from).unwrap_or_else(|| root.join("BENCH_exec.json"));
    let baseline_path = args.get(1).map(PathBuf::from).unwrap_or_else(|| root.join("BENCH_baseline.json"));

    let (current, baseline) = match (load(&current_path), load(&baseline_path)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_gate: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Every gate that tripped, by name; the exit status and the final line
    // both come from this list.
    let mut tripped: Vec<String> = Vec::new();
    let mut gated = 0u32;
    // Walk the union of kernels (baseline order first, then kernels only
    // the current run knows) so new benchmarks and counters are visible
    // but never gated.
    let mut kernels: Vec<&String> = baseline.keys().collect();
    kernels.extend(current.keys().filter(|k| !baseline.contains_key(*k)));
    println!("{:<28} {:<16} {:>14} {:>14} {:>8}", "kernel", "backend", "baseline", "current", "ratio");
    for kernel in kernels {
        let empty = BTreeMap::new();
        let base_benches = baseline.get(kernel).unwrap_or(&empty);
        let cur_benches = current.get(kernel).unwrap_or(&empty);
        let mut backends: Vec<&String> = base_benches.keys().collect();
        backends.extend(cur_benches.keys().filter(|b| !base_benches.contains_key(*b)));
        for backend in backends {
            match (base_benches.get(backend), cur_benches.get(backend)) {
                (Some(&base_ns), Some(&cur_ns)) => {
                    let ratio = cur_ns / base_ns;
                    let is_gated = GATED.contains(&backend.as_str());
                    let verdict = if is_gated && ratio > THRESHOLD { " REGRESSED" } else { "" };
                    println!(
                        "{kernel:<28} {backend:<16} {base_ns:>12.0}ns {cur_ns:>12.0}ns {ratio:>7.2}x{verdict}"
                    );
                    if is_gated {
                        gated += 1;
                        if ratio > THRESHOLD {
                            tripped.push(format!("{kernel}/{backend} vs baseline"));
                        }
                    }
                }
                (Some(&base_ns), None) => {
                    println!("{kernel:<28} {backend:<16} {base_ns:>12.0}ns {:>14} {:>8}", "missing", "-");
                    if GATED.contains(&backend.as_str()) {
                        eprintln!("bench_gate: gated benchmark {kernel}/{backend} missing from current run");
                        tripped.push(format!("{kernel}/{backend} missing"));
                    }
                }
                (None, Some(&cur_ns)) => {
                    // No baseline yet (new benchmark or counter): report,
                    // never gate. Values may be counters, so no unit.
                    println!("{kernel:<28} {backend:<16} {:>14} {cur_ns:>14.0} {:>8}", "new", "-");
                }
                (None, None) => unreachable!("backend came from one of the maps"),
            }
        }
    }
    // The tracing-overhead gate compares within the current run — both
    // sides measured moments apart on the same machine — so it needs no
    // baseline: counters-enabled serial execution must stay within
    // OVERHEAD_THRESHOLD of the untraced run, and the NullSink path within
    // NULL_THRESHOLD (the zero-cost-when-disabled claim). Like the
    // parallelism gate below, it reads best-paired-ratio metrics the bench
    // records rather than the outlier-prone mean timing entries.
    if let Some(overhead) = current.get("exec_overhead") {
        for (metric, bound) in [("null_overhead", NULL_THRESHOLD), ("counters_overhead", OVERHEAD_THRESHOLD)]
        {
            match overhead.get(metric) {
                Some(&ratio) if ratio > 0.0 => {
                    gated += 1;
                    let verdict = if ratio > bound { " REGRESSED" } else { "" };
                    println!(
                        "{:<28} {metric:<16} {:>14} {:>14} {ratio:>7.2}x{verdict}",
                        "exec_overhead (intra-run)", "paired", "-"
                    );
                    if ratio > bound {
                        eprintln!(
                            "bench_gate: tracing overhead: `{metric}` is {ratio:.2}x of the \
                             untraced serial run (bound {bound:.2}x)"
                        );
                        tripped.push(format!("exec_overhead/{metric}"));
                    }
                }
                _ => {
                    eprintln!("bench_gate: exec_overhead group is missing the `{metric}` metric");
                    tripped.push(format!("exec_overhead/{metric} missing"));
                }
            }
        }
    }
    // The parallelism gate is likewise intra-run: the work-stealing
    // `threads4` entry must not lose to the `serial` entry measured in the
    // same session. This is the "parallel execution never costs you"
    // invariant — the scheduler's adaptive clamp makes it hold even on a
    // single-core runner, where both entries run the identical serial path.
    for group_name in PARALLEL_GROUPS {
        let Some(group) = current.get(*group_name) else {
            eprintln!("bench_gate: parallel group {group_name} missing from current run");
            tripped.push(format!("{group_name} missing"));
            continue;
        };
        match group.get("parallel_speedup") {
            Some(&speedup) if speedup > 0.0 => {
                // `parallel_speedup` is serial/threads4, so losing to
                // serial shows up as a speedup *below* 1/threshold.
                let ratio = 1.0 / speedup;
                gated += 1;
                let verdict = if ratio > PARALLEL_THRESHOLD { " REGRESSED" } else { "" };
                println!(
                    "{:<28} {:<16} {:>14} {speedup:>13.2}x {ratio:>7.2}x{verdict}",
                    format!("{group_name} (intra-run)"),
                    "threads4/serial",
                    "speedup"
                );
                if ratio > PARALLEL_THRESHOLD {
                    eprintln!(
                        "bench_gate: {group_name}: `threads4` runs at {ratio:.2}x of the serial run \
                         (bound {PARALLEL_THRESHOLD:.2}x) — the work-stealing scheduler lost to serial"
                    );
                    tripped.push(format!("{group_name}/parallel_speedup"));
                }
            }
            _ => {
                eprintln!("bench_gate: {group_name} is missing the `parallel_speedup` metric");
                tripped.push(format!("{group_name}/parallel_speedup missing"));
            }
        }
    }

    // The service-throughput gate is intra-run as well: within one session
    // a warm plan/compile cache must never lose to a cold one, and the warm
    // rounds of a fixed workload must be nearly all plan-cache hits. The
    // group comes from `throughput --save-json`; a run that lost it is a
    // lost measurement and fails like a vanished gated benchmark.
    if let Some(throughput) = current.get("throughput") {
        match throughput.get("warm_speedup") {
            Some(&speedup) if speedup > 0.0 => {
                let ratio = 1.0 / speedup;
                gated += 1;
                let verdict = if ratio > WARM_THRESHOLD { " REGRESSED" } else { "" };
                println!(
                    "{:<28} {:<16} {:>14} {speedup:>13.2}x {ratio:>7.2}x{verdict}",
                    "throughput (intra-run)", "warm/cold", "speedup"
                );
                if ratio > WARM_THRESHOLD {
                    eprintln!(
                        "bench_gate: throughput: warm rounds run at {ratio:.2}x of the cold round \
                         (bound {WARM_THRESHOLD:.2}x) — the resident plan cache lost to fresh compiles"
                    );
                    tripped.push("throughput/warm_speedup".to_string());
                }
            }
            _ => {
                eprintln!("bench_gate: throughput group is missing the `warm_speedup` metric");
                tripped.push("throughput/warm_speedup missing".to_string());
            }
        }
        match throughput.get("warm_hit_rate") {
            Some(&rate) => {
                gated += 1;
                let verdict = if rate < WARM_HIT_RATE_FLOOR { " REGRESSED" } else { "" };
                println!(
                    "{:<28} {:<16} {:>14} {:>13.1}% {:>8}{verdict}",
                    "throughput (intra-run)",
                    "warm_hit_rate",
                    "hit rate",
                    100.0 * rate,
                    "-"
                );
                if rate < WARM_HIT_RATE_FLOOR {
                    eprintln!(
                        "bench_gate: throughput: warm plan-cache hit rate {:.1}% is below the \
                         {:.0}% floor — the service re-plans a fixed resident workload",
                        100.0 * rate,
                        100.0 * WARM_HIT_RATE_FLOOR
                    );
                    tripped.push("throughput/warm_hit_rate".to_string());
                }
            }
            None => {
                eprintln!("bench_gate: throughput group is missing the `warm_hit_rate` metric");
                tripped.push("throughput/warm_hit_rate missing".to_string());
            }
        }
        match throughput.get("telemetry_overhead") {
            Some(&ratio) if ratio > 0.0 => {
                gated += 1;
                let verdict = if ratio > TELEMETRY_THRESHOLD { " REGRESSED" } else { "" };
                println!(
                    "{:<28} {:<16} {:>14} {:>14} {ratio:>7.2}x{verdict}",
                    "throughput (intra-run)", "telemetry", "paired", "-"
                );
                if ratio > TELEMETRY_THRESHOLD {
                    eprintln!(
                        "bench_gate: throughput: instrumented service runs at {ratio:.2}x of the \
                         metrics-disabled service (bound {TELEMETRY_THRESHOLD:.2}x) — query-span \
                         telemetry is no longer cheap"
                    );
                    tripped.push("throughput/telemetry_overhead".to_string());
                }
            }
            _ => {
                eprintln!("bench_gate: throughput group is missing the `telemetry_overhead` metric");
                tripped.push("throughput/telemetry_overhead missing".to_string());
            }
        }
    } else {
        eprintln!("bench_gate: throughput group missing from current run");
        tripped.push("throughput missing".to_string());
    }

    println!("\n{gated} gated measurements, {} gate(s) tripped", tripped.len());
    if !tripped.is_empty() {
        eprintln!("bench_gate: failed gate(s): {}", tripped.join(", "));
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
