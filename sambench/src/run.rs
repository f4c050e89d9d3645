//! Running one workload in this process, and every workload in child
//! processes.

use crate::calibrate::{self, Calibrator};
use crate::engine::{self, busy_threads, Kind, State, Workload, SERVE_ROUND, WINDOW, WORKLOADS};
use crate::json::Value;
use crate::layers::{per_layer, Layers, Metric, TracedPhase};
use crate::probe::{peak_rss_mb, CountingAlloc, OsCounters, Tracer, NO_KERNEL};
use crate::stats::{median, percentile};
use sam_exec::PlanCache;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `setup_s` is the median over repeated set-ups: at least three, and as
/// many more (up to thirty) as fit in one second, so that a set-up of a few
/// milliseconds is not judged by three samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 30;
const SETUP_BUDGET_S: f64 = 1.0;
/// Spans written to the trace file; self times fold over all of them.
const TRACE_FILE_SPANS: usize = 20_000;

pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn find_workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (expected one of: {})", names.join(", "))
    })
}

/// The measured rounds of one phase.
#[derive(Debug, Default)]
struct Phase {
    round_ms: Vec<f64>,
    /// Every query's latency, and per round the median and the 95th
    /// percentile of its queries' latencies.
    query_ms: Vec<f64>,
    round_query_p50_ms: Vec<f64>,
    round_query_p95_ms: Vec<f64>,
    /// Per round, what to multiply its timings by: the calibration factor
    /// of the units run just before and just after it (see [`calibrate`]).
    speed: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Of one round; every round runs the same queries on the same operands.
    round_tokens: u64,
    round_cycles: u64,
    first_error: Option<String>,
}

/// Runs whole rounds for `seconds` (at least two rounds), checking every
/// result against the reference digest.
fn measure(
    state: &mut State,
    tr: &mut Tracer,
    profile: bool,
    seconds: f64,
    cal: &mut Calibrator,
    mut layers: Option<&mut Layers>,
) -> Phase {
    let mut phase = Phase::default();
    let mut unit_ns = cal.unit();
    let phase_started = Instant::now();
    while phase.round_ms.len() < 2 || phase_started.elapsed().as_secs_f64() < seconds {
        let span = tr.open("round", NO_KERNEL, 0);
        let started = Instant::now();
        let results = state.round(tr, profile);
        phase.round_ms.push(started.elapsed().as_secs_f64() * 1e3);
        tr.close(span);
        let unit_before = unit_ns;
        unit_ns = cal.unit_if_due().unwrap_or(unit_ns);
        phase.speed.push(calibrate::factor((unit_before + unit_ns) / 2.0));
        (phase.round_tokens, phase.round_cycles) = (0, 0);
        let mut latencies: Vec<f64> = results.iter().map(|r| r.latency_ns as f64 / 1e6).collect();
        phase.round_query_p50_ms.push(median(&mut latencies));
        phase.round_query_p95_ms.push(percentile(&mut latencies, 0.95));
        phase.query_ms.append(&mut latencies);
        for result in &results {
            let k = usize::from(result.kernel);
            phase.attempted += 1;
            match &result.run {
                Ok(run) if state.expected[k].matches_digest(run) => {
                    phase.round_tokens += run.tokens;
                    phase.round_cycles += run.cycles.unwrap_or(0);
                }
                outcome => {
                    phase.failed += 1;
                    let id = state.corpus.kernels[k].id;
                    phase.first_error.get_or_insert_with(|| match outcome {
                        Ok(_) => format!("{id}: output differs from the reference"),
                        Err(e) => format!("{id}: {e}"),
                    });
                }
            }
            if let Some(layers) = layers.as_deref_mut() {
                layers.observe(state.corpus.kernels[k].id, &state.prepared[k].kernel.graph, result);
            }
        }
        if let Some(layers) = layers.as_deref_mut() {
            layers.rounds += 1;
        }
    }
    phase
}

fn print_metric(m: &Metric, note: &str) {
    println!("{:<34} {:>16.6} {:<6} {note}", m.name, m.value, m.unit);
}

fn load_description(workload: &Workload) -> String {
    match workload.kind {
        Kind::Serve => format!(
            "closed loop, {} client threads, window {WINDOW}, {SERVE_ROUND} queries per round, service workers {}",
            busy_threads(),
            busy_threads()
        ),
        Kind::Warm(..) | Kind::Cold => format!("one caller, queries back to back, at most {} busy threads", busy_threads()),
    }
}

/// The traced run: a quarter of `seconds` untraced, which gives the traced
/// rounds a baseline in the same process and on the same operands, then
/// three quarters with spans, execution profiles and allocation counting on.
fn traced(state: &mut State, tr: &mut Tracer, seconds: f64, cal: &mut Calibrator) -> (Phase, Vec<Metric>) {
    let mut untraced = measure(state, &mut Tracer::new(false), false, seconds / 4.0, cal, None);
    let mut layers = Layers::default();
    let plan_cache_before = PlanCache::global().stats();
    let allocs_before = CountingAlloc::totals();
    let os_before = OsCounters::read();
    CountingAlloc::set_enabled(true);
    let mut phase = measure(state, tr, true, seconds * 0.75, cal, Some(&mut layers));
    CountingAlloc::set_enabled(false);
    let os = OsCounters::read();
    let allocs = CountingAlloc::totals();
    phase.failed += untraced.failed;
    phase.attempted += untraced.attempted;
    phase.first_error = untraced.first_error.take().or(phase.first_error);
    // Calibrated, so that a change of machine speed between the two phases
    // does not pass for tracing overhead.
    let traced = TracedPhase {
        round_ms_p50: median(&mut scaled(&phase.round_ms, &phase.speed)),
        untraced_round_ms_p50: median(&mut scaled(&untraced.round_ms, &untraced.speed)),
        query_us_p50: median(&mut phase.round_query_p50_ms) * 1e3,
        alloc_calls: allocs.0 - allocs_before.0,
        alloc_bytes: allocs.1 - allocs_before.1,
        minor_faults: os.minor_faults - os_before.minor_faults,
        user_ticks: os.user_ticks - os_before.user_ticks,
        system_ticks: os.system_ticks - os_before.system_ticks,
        plan_cache: PlanCache::global().stats().delta_since(&plan_cache_before),
    };
    let metrics = per_layer(state, tr, &layers, &traced);
    (phase, metrics)
}

/// Runs `args.workload` in this process and prints its metrics, the last
/// line being the result object of the benchmark contract. `Ok(false)`
/// means queries failed or returned wrong output.
pub fn run_workload(args: RunArgs) -> Result<bool, String> {
    let RunArgs { workload, seed, seconds, trace } = args;
    println!(
        "# sambench {} seed={seed} seconds={seconds} trace={} nproc={} ({})",
        workload.name,
        u8::from(trace),
        std::thread::available_parallelism().map_or(1, usize::from),
        load_description(workload)
    );
    println!("# why: {}", workload.why);
    let mut tr = Tracer::new(trace);
    let mut cal = Calibrator::new(workload.threads());
    let mut unit_ns = cal.unit();
    // Raw set-up times, and what the units around each say to multiply it by.
    let mut setup_s = Vec::new();
    let mut setup_speed = Vec::new();
    let mut state = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // The previous service shuts down before the clock starts.
        drop(state.take());
        let started = Instant::now();
        state = Some(engine::setup(workload, seed, &mut tr)?);
        setup_s.push(started.elapsed().as_secs_f64());
        let unit_before = unit_ns;
        unit_ns = cal.unit();
        setup_speed.push(calibrate::factor((unit_before + unit_ns) / 2.0));
    }
    let mut state = state.expect("at least MIN_SETUPS set-ups ran");
    println!("# corpus nnz={} checksum={:016x}", state.corpus.nnz(), state.corpus.checksum());

    let (phase, metrics) = if trace {
        let (phase, metrics) = traced(&mut state, &mut tr, seconds, &mut cal);
        metrics.iter().for_each(|m| print_metric(m, ""));
        print_self_times(&tr, phase.round_ms.len());
        write_trace(workload, &state, &tr)?;
        (phase, metrics)
    } else {
        let mut phase = measure(&mut state, &mut tr, false, seconds, &mut cal, None);
        let metrics = end_to_end(&phase, &phase.speed, &setup_s, &setup_speed)?;
        let raw = end_to_end(&phase, &vec![1.0; phase.speed.len()], &setup_s, &vec![1.0; setup_s.len()])?;
        print_end_to_end(&metrics, &raw, &mut phase, setup_s.len());
        (phase, metrics)
    };
    if let Some(error) = &phase.first_error {
        println!("# first failure: {error}");
    }
    let result = Value::object(vec![
        ("correct", Value::Bool(phase.failed == 0)),
        ("attempted", Value::from(phase.attempted as f64)),
        ("failed", Value::from(phase.failed as f64)),
        (
            "metrics",
            Value::object(
                metrics
                    .iter()
                    .map(|m| {
                        let fields = vec![("value", Value::from(m.value)), ("unit", Value::from(m.unit))];
                        (m.name.clone(), Value::object(fields))
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    Ok(phase.failed == 0)
}

fn scaled(raw: &[f64], speed: &[f64]) -> Vec<f64> {
    raw.iter().zip(speed).map(|(r, s)| r * s).collect()
}

/// The end-to-end metrics of `BENCHMARK.json`, in its order, with every
/// round's and set-up's timings multiplied by its speed factor (see
/// [`calibrate`]) before any statistic is taken; all-ones factors give the
/// raw values. The rates are what one round completes over the median round
/// time: a straggling round moves a median far less than it moves a total.
fn end_to_end(
    phase: &Phase,
    speed: &[f64],
    setup_s: &[f64],
    setup_speed: &[f64],
) -> Result<Vec<Metric>, String> {
    let mut round_ms = scaled(&phase.round_ms, speed);
    let round_s = median(&mut round_ms) / 1e3;
    let round_queries = (phase.attempted - phase.failed) as f64 / phase.round_ms.len() as f64;
    Ok(vec![
        Metric::new("setup_s", median(&mut scaled(setup_s, setup_speed)), "s"),
        Metric::new("round_ms_p50", round_s * 1e3, "ms"),
        Metric::new("round_ms_p75", percentile(&mut round_ms, 0.75), "ms"),
        Metric::new("queries_per_s", round_queries / round_s, "1/s"),
        Metric::new("tokens_per_s", phase.round_tokens as f64 / round_s, "1/s"),
        Metric::new("query_ms_p50", median(&mut scaled(&phase.round_query_p50_ms, speed)), "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// Prints the calibrated metrics, each with its raw value beside it, and the
/// informational ones `BENCHMARK.json` does not list (see the README). The
/// tail latencies are raw: no calibration steadies them on a shared host.
fn print_end_to_end(metrics: &[Metric], raw: &[Metric], phase: &mut Phase, setups: usize) {
    let speed = median(&mut phase.speed.clone());
    println!(
        "# calibration: timings x {speed:.4} at the median round; unit nominal {:.3} ms; {} rounds, {} queries, {setups} set-ups",
        calibrate::NOMINAL_UNIT_NS / 1e6,
        phase.round_ms.len(),
        phase.query_ms.len()
    );
    for (m, r) in metrics.iter().zip(raw) {
        let note = if m.name == "peak_rss_mb" { String::new() } else { format!("raw {:.6}", r.value) };
        print_metric(m, &note);
    }
    let frac = phase.failed as f64 / phase.attempted as f64;
    print_metric(
        &Metric::new("failed_frac", frac, "ratio"),
        &format!("{} of {}", phase.failed, phase.attempted),
    );
    let p95 = median(&mut phase.round_query_p95_ms);
    print_metric(
        &Metric::new("query_ms_p95", p95, "ms"),
        "raw, informational: median round's 95th percentile",
    );
    // A p99 needs a thousand samples beyond it to be worth printing.
    if phase.query_ms.len() >= 100_000 {
        let p99 = percentile(&mut phase.query_ms, 0.99);
        print_metric(&Metric::new("query_ms_p99", p99, "ms"), "raw, informational: over all queries");
    }
    if phase.round_cycles > 0 {
        let per_s = phase.round_cycles as f64 * 1e3 / median(&mut phase.round_ms.clone());
        let note = format!("raw {per_s:.6}, informational: simulated cycles per host second");
        print_metric(&Metric::new("sim_cycles_per_s", per_s / speed, "1/s"), &note);
    }
}

/// The layer table the README quotes: each span name's self time as a share
/// of the traced query time.
fn print_self_times(tr: &Tracer, rounds: usize) {
    let shares = tr.self_times("query");
    let total: u64 = shares.values().sum();
    println!("# self time by span, share of query time over {rounds} traced rounds:");
    for (name, ns) in &shares {
        println!("#   {name:<22} {:>8.3} %", *ns as f64 * 100.0 / total.max(1) as f64);
    }
}

fn write_trace(workload: &Workload, state: &State, tr: &Tracer) -> Result<(), String> {
    let dir = out_dir();
    let path = dir.join(format!("trace_{}.json", workload.name));
    let kernel_name = |k: u16| state.corpus.kernels.get(usize::from(k)).map(|kernel| kernel.id);
    let text = tr.chrome_trace(TRACE_FILE_SPANS, kernel_name).to_string();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "# trace: {} ({} of {} spans)",
        path.display(),
        tr.spans().len().min(TRACE_FILE_SPANS),
        tr.spans().len()
    );
    Ok(())
}

/// One child process: its standard output is passed through, and the last
/// line comes back parsed.
fn child(workload: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload.name, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading child output: {e}"))?;
        println!("{line}");
        last = line;
    }
    let status = child.wait().map_err(|e| format!("waiting for child: {e}"))?;
    let result =
        Value::parse(&last).map_err(|e| format!("{}: no result line ({status}): {e}", workload.name))?;
    if !status.success() {
        eprintln!("sambench: {} exited with {status}", workload.name);
    }
    Ok(result)
}

/// `(name, value)` of every metric of a child's result line.
fn metric_values(result: &Value) -> Vec<(String, Value)> {
    let fields = result.get("metrics").and_then(Value::as_object).unwrap_or(&[]);
    fields.iter().map(|(name, m)| (name.clone(), m.get("value").cloned().unwrap_or(Value::Null))).collect()
}

/// `sambench run`: every workload, each run in a process of its own so
/// peaks do not mix and the global plan cache starts empty: `reps` untraced
/// runs on seeds `seed..seed+reps`, then one traced run on `seed`. Writes
/// the collected results to `out` and returns whether every query of every
/// run was correct.
pub fn run_all(seed: u64, seconds: f64, reps: u64, out: &Path) -> Result<bool, String> {
    let started = Instant::now();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in &WORKLOADS {
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut tally = |result: &Value| {
            attempted += result.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
            failed += result.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        };
        let mut end_to_end: Vec<(String, Vec<Value>)> = Vec::new();
        for rep in 0..reps {
            let result = child(workload, seed + rep, seconds, false)?;
            tally(&result);
            for (name, value) in metric_values(&result) {
                match end_to_end.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, values)) => values.push(value),
                    None => end_to_end.push((name, vec![value])),
                }
            }
        }
        let traced = child(workload, seed, seconds, true)?;
        tally(&traced);
        let layer = metric_values(&traced);
        all_correct &= failed == 0.0;
        workloads.push((
            workload.name,
            Value::object(vec![
                ("attempted", Value::from(attempted)),
                ("failed", Value::from(failed)),
                (
                    "end_to_end",
                    Value::Object(end_to_end.into_iter().map(|(n, v)| (n, Value::Array(v))).collect()),
                ),
                ("per_layer", Value::Object(layer)),
            ]),
        ));
    }
    let file = Value::object(vec![
        ("seed", Value::from(seed as f64)),
        ("seconds", Value::from(seconds)),
        ("reps", Value::from(reps as f64)),
        ("busy_threads", Value::from(busy_threads() as f64)),
        ("workloads", Value::object(workloads)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, format!("{file}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# wrote {} after {:.0?}", out.display(), Duration::from_secs(started.elapsed().as_secs()));
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::is_exact;

    fn traced_once(name: &str, seed: u64) -> (u64, Phase, Vec<Metric>) {
        let mut tr = Tracer::new(true);
        let mut state = engine::setup(find_workload(name).unwrap(), seed, &mut tr).unwrap();
        let (phase, metrics) = traced(&mut state, &mut tr, 0.0, &mut Calibrator::new(1));
        (state.corpus.checksum(), phase, metrics)
    }

    #[test]
    fn the_same_seed_repeats_the_corpus_and_every_exact_count() {
        // One workload per exact-count family: tokens and tiles, simulated
        // cycles, the cold path's graphs, and the service's per-round tokens.
        for name in ["medium-tiled", "small-cycle", "small-cold-compile", "serve-warm-zipf"] {
            let (sum_a, phase_a, a) = traced_once(name, 7);
            let (sum_b, phase_b, b) = traced_once(name, 7);
            assert_eq!((phase_a.failed, phase_b.failed), (0, 0), "{name}: {:?}", phase_a.first_error);
            assert_eq!(sum_a, sum_b, "{name}: corpus checksum");
            let exact = |metrics: &[Metric]| -> Vec<Metric> {
                metrics.iter().filter(|m| is_exact(&m.name)).cloned().collect()
            };
            assert_eq!(exact(&a), exact(&b), "{name}: exact counts");
            assert!(exact(&a).iter().any(|m| m.name == "exec.tokens.spmv" && m.value > 0.0), "{name}");
            let (sum_c, _, c) = traced_once(name, 8);
            assert_ne!(sum_a, sum_c, "{name}: another seed is another corpus");
            let fixed = |m: &&Metric| m.name == "custard.graph_nodes" || m.name == "exec.token_bytes";
            assert_eq!(
                a.iter().find(fixed),
                c.iter().find(fixed),
                "{name}: graphs do not depend on the seed"
            );
        }
    }

    #[test]
    fn a_corrupted_output_is_counted_as_failed() {
        let mut tr = Tracer::new(false);
        let mut state = engine::setup(find_workload("small-cold-compile").unwrap(), 3, &mut tr).unwrap();
        // A real execution with one value changed no longer matches.
        let mut run = state.round(&mut tr, false).remove(0).run.unwrap();
        assert!(state.expected[0].matches_fully(&run) && state.expected[0].matches_digest(&run));
        run.vals[0] += 1.0;
        assert!(!state.expected[0].matches_digest(&run));
        // And the accounting sees it: a reference that disagrees with one
        // kernel's output fails that kernel's query in every round.
        let mut cal = Calibrator::new(1);
        let clean = measure(&mut state, &mut tr, false, 0.0, &mut cal, None);
        assert_eq!((clean.failed, clean.round_ms.len()), (0, 2));
        state.expected[0].digest.sum += 1.0;
        let phase = measure(&mut state, &mut tr, false, 0.0, &mut cal, None);
        assert_eq!((phase.attempted, phase.failed), (24, 2));
        assert!(phase.first_error.unwrap().contains("differs from the reference"));
    }
}
