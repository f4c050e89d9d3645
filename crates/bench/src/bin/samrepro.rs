//! `samrepro <target> [--full]`: regenerates one table or figure of the
//! paper's evaluation on stdout.
//!
//! * `table1` — primitive composition per expression, then the core
//!   expressions cross-checked end to end through `sam-exec` on both
//!   backends;
//! * `table2` — the primitive-removal ablation;
//! * `fig11` / `fig12` — fused vs unfused SDDMM, SpM*SpM dataflow orders;
//! * `fig13` — the vector multiply study across the six storage and
//!   acceleration configurations;
//! * `fig14` — stream token composition over the Table 3 catalog;
//! * `fig15` — the finite-memory ExTensor study, measured on the tiled
//!   backend at two of the paper's four nonzero counts, plus the
//!   sparse-tile-skipping ablation. `--full` runs all four nonzero counts
//!   (slow: millions of tile executions at the large dimensions);
//! * `stream_analysis` — Section 3.8's level-based vs point-based token
//!   counts, the level-based ones read from `fig14`'s identity runs.

use sam_memory::MemoryConfig;

fn usage() -> ! {
    eprintln!(
        "usage: samrepro <table1|table2|fig11|fig12|fig13|fig14|stream_analysis>\n       samrepro fig15 [--full]"
    );
    std::process::exit(2);
}

fn fig15(full: bool) {
    // The measured sweep on the paper's dimension axis. All four nonzero
    // counts take minutes (millions of effectual tile pairs at the top
    // dimensions); the default trims to two curves, `--full` runs all.
    let config = MemoryConfig::default();
    let dims: Vec<usize> = (0..12).map(|s| 1024 + 1336 * s).collect();
    let nnz: &[usize] = if full { &[5000, 10000, 25000, 50000] } else { &[5000, 25000] };
    print!("{}", sam_bench::figure15_measured_report(&dims, nnz, &config));
    if !full {
        println!("(the paper's nnz=10000 and nnz=50000 curves are not run; `fig15 --full` runs them)");
    }
    println!();

    // Skipping ablation in the paper's falling regime (tiles emptying
    // out), under an LLB well below the operand working set so needless
    // tile fetches thrash it (≈28% DRAM saved at this configuration).
    let study_config = MemoryConfig { llb_bytes: 16 * 1024, ..MemoryConfig::default() };
    let (study, _, _) = sam_bench::figure15_skipping_study(8032, 5000, &study_config);
    print!("{study}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["table1"] => {
            print!("{}", sam_bench::table1_report());
            println!();
            print!("{}", sam_bench::executor_report(1));
        }
        ["table2"] => print!("{}", sam_bench::table2_report()),
        ["fig11"] => print!("{}", sam_bench::figure11_report(1)),
        ["fig12"] => print!("{}", sam_bench::figure12_report(1)),
        ["fig13"] => print!("{}", sam_bench::figure13_report(2000)),
        ["fig14"] => print!("{}", sam_bench::figure14_report(usize::MAX)),
        ["fig15"] => fig15(false),
        ["fig15", "--full"] => fig15(true),
        ["stream_analysis"] => print!("{}", sam_bench::stream_analysis_report()),
        _ => usage(),
    }
}
