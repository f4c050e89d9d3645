//! `sambench`: one harness over the SAM reproduction. See `README.md`.

mod calibrate;
mod compare;
mod corpus;
mod engine;
mod json;
mod layers;
mod probe;
mod reference;
mod rng;
mod run;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

const USAGE: &str = "usage:
  sambench --workload <name> --seed <u64> --seconds <n> --trace <0|1>   one workload, in this process
  sambench run [--seed <u64>] [--seconds <n>] [--reps <n>] [--out <file>]   every workload, one process each
  sambench compare <A.json> <B.json>   judge B against A by the bounds of BENCHMARK.json";

/// `--name value` pairs after the subcommand, each name at most once.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out: Vec<(String, String)> = Vec::new();
    for pair in args.chunks(2) {
        let [name, value] = pair else { return Err(format!("`{}` needs a value", pair[0])) };
        let name = name
            .strip_prefix("--")
            .filter(|n| known.contains(n))
            .ok_or(format!("unknown argument `{name}`"))?;
        if out.iter().any(|(n, _)| n == name) {
            return Err(format!("`--{name}` given twice"));
        }
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Result<Option<T>, String> {
    match flags.iter().find(|(n, _)| n == name) {
        None => Ok(None),
        Some((_, value)) => {
            value.parse().map(Some).map_err(|_| format!("`--{name} {value}` is not a valid value"))
        }
    }
}

fn seconds(flags: &[(String, String)]) -> Result<Option<f64>, String> {
    match flag::<f64>(flags, "seconds")? {
        Some(s) if !(s > 0.0 && s <= 60.0) => Err(format!("`--seconds {s}` is outside (0, 60]")),
        other => Ok(other),
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let flags = flags(&args[1..], &["seed", "seconds", "reps", "out"])?;
            let seed = flag(&flags, "seed")?.unwrap_or(1);
            let out = flag::<PathBuf>(&flags, "out")?
                .unwrap_or_else(|| run::out_dir().join(format!("run_{seed}.json")));
            run::run_all(seed, seconds(&flags)?.unwrap_or(15.0), flag(&flags, "reps")?.unwrap_or(1), &out)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("compare takes two files".to_string()),
        },
        Some(first) if first.starts_with("--") => {
            let flags = flags(args, &["workload", "seed", "seconds", "trace"])?;
            let need = |name: &str| format!("`--{name}` is required");
            let workload: String = flag(&flags, "workload")?.ok_or_else(|| need("workload"))?;
            run::run_workload(run::RunArgs {
                workload: run::find_workload(&workload)?,
                seed: flag(&flags, "seed")?.ok_or_else(|| need("seed"))?,
                seconds: seconds(&flags)?.ok_or_else(|| need("seconds"))?,
                trace: match flag::<u8>(&flags, "trace")?.ok_or_else(|| need("trace"))? {
                    0 => false,
                    1 => true,
                    other => return Err(format!("`--trace {other}` is neither 0 nor 1")),
                },
            })
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // Queries failed, a metric got worse, or a count differs: the
        // output above says which.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sambench: {message}");
            ExitCode::from(2)
        }
    }
}
