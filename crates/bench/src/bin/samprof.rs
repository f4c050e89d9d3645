//! `samprof`: profile one kernel or Table 1 expression on any backend.
//!
//! Runs the chosen graph under a [`CountersSink`] (or a [`ChromeTraceSink`]
//! when `--trace` is given), prints the run's headline numbers and the
//! ranked per-node time/token table (with the kilobytes of tokens each
//! node stored or sent, and fiber pairs and nanoseconds per pair for every
//! intersecter), and names the node on the critical
//! path — the longest-running node of the run.
//!
//! ```text
//! samprof spmv_skew --backend cycle --trace skew.json
//! samprof SpM*SpM --backend cycle
//! samprof --list
//! ```
//!
//! * `--backend cycle|fast-serial|tiled` (default `fast-serial`);
//! * `--trace <path>` also writes a Chrome `trace_event` JSON timeline
//!   (load it at `ui.perfetto.dev` or `chrome://tracing`);
//! * `--serve [--rounds N]` profiles the query *lifecycle* instead of one
//!   execution: it runs the Table 1 workload through a resident
//!   `sam-serve` service for N rounds and prints the per-stage breakdown
//!   (queue / compile / plan / batch / execute / resolve) with p50/p90/p99
//!   and max per stage, from the service telemetry.

use sam_bench::{kernel_case, table1_case, table1_case_names, PROFILE_KERNELS};
use sam_core::graph::NodeKind;
use sam_exec::{
    BackendSpec, ChromeTraceSink, CountersSink, ExecProfile, Execution, Executor, Plan, TiledBackend,
};

/// Builds the profiled backend from a [`BackendSpec`] label.
/// `tiled` uses 64-wide tiles: several profiled kernels have 128-wide
/// operands, which the default 128-wide tile would cover in one tile.
fn build_backend(arg: &str) -> Result<Box<dyn Executor>, sam_exec::ParseBackendError> {
    Ok(match arg.parse()? {
        BackendSpec::Tiled => Box::new(TiledBackend::with_tile(64)),
        spec => spec.build(),
    })
}

fn usage() -> ! {
    eprintln!(
        "usage: samprof <kernel|expression> [--backend cycle|fast-serial|tiled] \
         [--trace out.json]\n       samprof --serve [--rounds N]\n       samprof --list"
    );
    std::process::exit(2);
}

/// `--serve`: run the Table 1 workload through a resident service and
/// print the query-lifecycle breakdown from the service telemetry.
fn serve_mode(rounds: usize) {
    use sam_exec::Stage;
    use sam_serve::Service;
    use std::sync::Arc;

    let (store, queries) = sam_serve::table1_workload(997);
    let service = Service::new(Arc::clone(&store));
    for _ in 0..rounds {
        let handles: Vec<_> = queries.iter().map(|w| (w.name, service.submit(w.query.clone()))).collect();
        for (name, handle) in handles {
            if let Err(e) = handle.wait() {
                eprintln!("samprof --serve: `{name}` failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let snap = service.metrics_snapshot();
    println!(
        "samprof --serve: {} queries ({} Table 1 expressions x {rounds} rounds) through sam-serve\n",
        snap.completed,
        queries.len()
    );
    println!(
        "{:<10} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50 us", "p90 us", "p99 us", "max us"
    );
    let us = |ns: u64| ns as f64 / 1e3;
    for stage in Stage::ALL {
        let h = snap.stage(stage);
        println!(
            "{:<10} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            stage.name(),
            h.count,
            us(h.p50()),
            us(h.p90()),
            us(h.p99()),
            us(h.max),
        );
    }
    let h = &snap.latency;
    println!(
        "{:<10} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
        "total",
        h.count,
        us(h.p50()),
        us(h.p90()),
        us(h.p99()),
        us(h.max),
    );
    println!("\nexecute by backend:");
    for (backend, h) in &snap.execute_by_backend {
        println!(
            "  {backend:<16} {:>5} queries, p50 {:>8.1}us, p99 {:>8.1}us",
            h.count,
            us(h.p50()),
            us(h.p99())
        );
    }
    println!(
        "\ncompile cache {} hits / {} misses; plan cache {} hits / {} misses / {} evictions",
        snap.compile_hits, snap.compile_misses, snap.plans.hits, snap.plans.misses, snap.plans.evictions
    );
    println!("queue depth high-water {}", snap.lane_depth_high_water);
    let busiest = snap.workers.iter().map(|w| w.utilization).fold(0.0f64, f64::max);
    println!(
        "lifetime qps {:.0}, {} workers (busiest {:.0}% utilized), store built {} tensors in {:.1}us",
        snap.completed as f64 / snap.uptime.as_secs_f64(),
        snap.workers.len(),
        100.0 * busiest,
        snap.store.builds,
        snap.store.build_ns as f64 / 1e3
    );
}

fn report(name: &str, plan: &Plan, run: &Execution, profile: &ExecProfile) {
    let graph = plan.graph();
    println!("samprof: `{name}` on the `{}` backend", run.backend);
    let cycles = run.cycles.map_or("-".to_string(), |c| c.to_string());
    println!(
        "tokens={} cycles={} elapsed={:.2?} ({} nodes, {} channels)",
        run.tokens,
        cycles,
        run.elapsed,
        profile.nodes.len(),
        run.channels,
    );
    println!("critical path {:.1}us\n", profile.critical_path_ns() as f64 / 1e3);
    let intersecters: Vec<usize> =
        (0..graph.len()).filter(|&i| matches!(graph.nodes()[i], NodeKind::Intersecter { .. })).collect();
    // The fast walk (tiled inner runs included) stores no stream of a fused
    // scanner, nor of a fusion-region node none of whose streams leave the
    // region: the plan decides which (`Plan::stores_streams`). The cycle
    // backend sends them all.
    let fused: Vec<usize> = match run.backend {
        "cycle" => Vec::new(),
        _ => plan.order().iter().filter(|&&id| !plan.stores_streams(id)).map(|id| id.0).collect(),
    };
    print!("{}", profile.stall_table(&intersecters, &fused));
    // The critical-path node: the longest-lived one.
    if let Some(top) = profile.nodes.iter().max_by_key(|n| (n.wall_ns(), n.tokens.total())) {
        println!(
            "\nbottleneck: n{}:{} ({} tokens, busy {:.1}us)",
            top.index,
            top.label,
            top.tokens.total(),
            top.busy_ns as f64 / 1e3,
        );
    }
    // On the cycle backend, and only there (the tiled backend's `cycles`
    // are a model and its `invocs` inner runs), `invocs` is ticks, and a
    // block is not ticked while it is stalled on a channel.
    let simulated = run.cycles.filter(|_| run.backend == "cycle");
    if let (Some(cycles), Some(top)) = (simulated, profile.nodes.iter().max_by_key(|n| n.invocations)) {
        println!(
            "busiest block: n{}:{} ticked in {} of {cycles} cycles, stalled for the other {:.0} %",
            top.index,
            top.label,
            top.invocations,
            100.0 - 100.0 * top.invocations as f64 / cycles.max(1) as f64,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut name: Option<String> = None;
    let mut backend_arg = "fast-serial".to_string();
    let mut trace_path: Option<String> = None;
    let mut serve = false;
    let mut rounds = 10usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                println!("kernels:     {}", PROFILE_KERNELS.join(", "));
                println!("expressions: {}", table1_case_names().join(", "));
                return;
            }
            "--backend" => backend_arg = it.next().cloned().unwrap_or_else(|| usage()),
            "--trace" => trace_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--serve" => serve = true,
            "--rounds" => {
                rounds = it.next().and_then(|n| n.parse().ok()).unwrap_or_else(|| usage());
            }
            _ if a.starts_with("--") => usage(),
            _ if name.is_none() => name = Some(a.clone()),
            _ => usage(),
        }
    }
    if serve {
        if name.is_some() {
            usage();
        }
        serve_mode(rounds.max(1));
        return;
    }
    let Some(name) = name else { usage() };

    let (graph, inputs) = match kernel_case(&name).or_else(|| table1_case(&name, 200)) {
        Some(case) => case,
        None => {
            eprintln!("unknown kernel or expression `{name}`; `samprof --list` shows both sets");
            std::process::exit(2);
        }
    };
    let backend = match build_backend(&backend_arg) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let plan = match Plan::build(&graph, &inputs) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("planning `{name}` failed: {e}");
            std::process::exit(1);
        }
    };

    // One traced run; the sink doubles as the timeline recorder when a
    // trace path was requested.
    let run = if let Some(path) = &trace_path {
        let sink = ChromeTraceSink::new();
        let run = backend.run_traced(&plan, &inputs, &sink);
        if run.is_ok() {
            if let Err(e) = sink.write_json(std::path::Path::new(path)) {
                eprintln!("failed to write trace to `{path}`: {e}");
                std::process::exit(1);
            }
            println!("wrote {} spans to {path} (load at ui.perfetto.dev)\n", sink.span_count());
        }
        run
    } else {
        backend.run_traced(&plan, &inputs, &CountersSink::new())
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("running `{name}` on `{}` failed: {e}", backend.name());
            std::process::exit(1);
        }
    };
    let profile = run.profile.clone().expect("traced runs attach a profile");
    report(&name, &plan, &run, &profile);
}
