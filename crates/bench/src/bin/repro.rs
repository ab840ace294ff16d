//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p mvio-bench --bin repro -- all
//! cargo run --release -p mvio-bench --bin repro -- fig8 fig11
//! cargo run --release -p mvio-bench --bin repro -- --scale 10000 fig17
//! cargo run --release -p mvio-bench --bin repro -- --quick all
//! ```
//!
//! `--scale D` sets the workload denominator (default 1000 = 1/1000 of the
//! paper's dataset sizes). `--quick` trims the sweeps for smoke runs.
//! `--list` prints the valid experiment names. The special target `gate`
//! runs the bench-regression gate (tracked speedup ratios vs their
//! asserted floors; ignores `--scale`/`--quick`) and exits nonzero on a
//! regression. An unknown experiment name is rejected up front with a
//! usage message and a nonzero exit — nothing runs.

use mvio_bench::experiments::{self as ex, Scale};

/// One experiment: `(scale, quick)` to its rendered output.
type Runner = fn(Scale, bool) -> String;

/// Every experiment by name, in the order `all` runs them.
const EXPERIMENTS: &[(&str, Runner)] = &[
    ("pipeline", ex::pipeline::run),
    ("decomp", ex::decomp::run),
    ("exchange", ex::exchange::run),
    ("io", ex::io::run),
    ("serve", ex::serve::run),
    ("rebalance", ex::rebalance::run),
    ("ledger", ex::ledger::run),
    ("table1", ex::table1::run),
    ("table2", ex::table2::run),
    ("table3", ex::table3::run),
    ("fig8", ex::fig08::run),
    ("fig9", ex::fig09::run),
    ("fig10", ex::fig10::run),
    ("fig11", ex::fig11::run),
    ("fig12", ex::fig12::run),
    ("fig13", ex::fig13::run),
    ("fig14", ex::fig14::run),
    ("fig15", ex::fig15::run),
    ("fig16", ex::fig16::run),
    ("fig17", ex::fig17::run),
    ("fig18", ex::fig18::run),
    ("fig19", ex::fig19::run),
    ("fig20", ex::fig20::run),
    ("baseline", ex::baseline::run),
    ("ablation-maps", ex::ablation::maps),
    ("ablation-blocks", ex::ablation::blocks),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default_repro();
    let mut quick = false;
    let mut targets: Vec<String> = Vec::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let d: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("missing/invalid --scale value"));
                scale = Scale {
                    denominator: d.max(1),
                };
            }
            "--quick" => quick = true,
            "--help" | "-h" => usage(""),
            "--list" => {
                for (id, _) in EXPERIMENTS {
                    println!("{id}");
                }
                println!("gate");
                return;
            }
            "all" => targets.extend(EXPERIMENTS.iter().map(|(id, _)| id.to_string())),
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        usage("no experiment selected");
    }
    targets.dedup();
    // Resolve every name before running anything: a typo'd batch job
    // must fail fast, not after an hour of the experiments it did spell
    // correctly. `None` is the gate.
    let jobs: Vec<Option<Runner>> = targets
        .iter()
        .map(|t| {
            let runner = EXPERIMENTS
                .iter()
                .find(|(id, _)| id == t)
                .map(|&(_, run)| run);
            if runner.is_none() && t != "gate" {
                usage(&format!("unknown experiment {t:?}"));
            }
            runner
        })
        .collect();

    println!(
        "MPI-Vector-IO reproduction — scale 1/{}, {} mode\n",
        scale.denominator,
        if quick { "quick" } else { "full" }
    );
    let mut failed = false;
    for job in jobs {
        match job {
            Some(run) => println!("{}", run(scale, quick)),
            None => {
                let (out, pass) = ex::gate::run();
                println!("{out}");
                failed |= !pass;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: repro [--scale D] [--quick] [--list] <experiment...|all|gate>");
    let ids: Vec<&str> = EXPERIMENTS.iter().map(|&(id, _)| id).collect();
    eprintln!("experiments: {ids:?}");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
