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

const IDS: [&str; 26] = [
    "pipeline",
    "decomp",
    "exchange",
    "io",
    "serve",
    "rebalance",
    "table1",
    "table2",
    "table3",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "baseline",
    "ablation-maps",
    "ablation-windows",
    "ablation-blocks",
];

fn dispatch(id: &str, scale: Scale, quick: bool) -> Option<String> {
    Some(match id {
        "pipeline" => ex::pipeline::run(scale, quick),
        "decomp" => ex::decomp::run(scale, quick),
        "exchange" => ex::exchange::run(scale, quick),
        "io" => ex::io::run(scale, quick),
        "serve" => ex::serve::run(scale, quick),
        "rebalance" => ex::rebalance::run(scale, quick),
        "table1" => ex::table1::run(scale, quick),
        "table2" => ex::table2::run(scale, quick),
        "table3" => ex::table3::run(scale, quick),
        "fig8" => ex::fig08::run(scale, quick),
        "fig9" => ex::fig09::run(scale, quick),
        "fig10" => ex::fig10::run(scale, quick),
        "fig11" => ex::fig11::run(scale, quick),
        "fig12" => ex::fig12::run(scale, quick),
        "fig13" => ex::fig13::run(scale, quick),
        "fig14" => ex::fig14::run(scale, quick),
        "fig15" => ex::fig15::run(scale, quick),
        "fig16" => ex::fig16::run(scale, quick),
        "fig17" => ex::fig17::run(scale, quick),
        "fig18" => ex::fig18::run(scale, quick),
        "fig19" => ex::fig19::run(scale, quick),
        "fig20" => ex::fig20::run(scale, quick),
        "baseline" => ex::baseline::run(scale, quick),
        "ablation-maps" => ex::ablation::maps(scale, quick),
        "ablation-windows" => ex::ablation::windows(scale, quick),
        "ablation-blocks" => ex::ablation::blocks(scale, quick),
        _ => return None,
    })
}

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
                for id in IDS {
                    println!("{id}");
                }
                println!("gate");
                return;
            }
            "all" => targets.extend(IDS.iter().map(|s| s.to_string())),
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        usage("no experiment selected");
    }
    targets.dedup();
    // Reject unknown names before running anything: a typo'd batch job
    // must fail fast, not after an hour of the experiments it did spell
    // correctly.
    if let Some(bad) = targets
        .iter()
        .find(|t| *t != "gate" && !IDS.contains(&t.as_str()))
    {
        usage(&format!("unknown experiment {bad:?}"));
    }

    println!(
        "MPI-Vector-IO reproduction — scale 1/{}, {} mode\n",
        scale.denominator,
        if quick { "quick" } else { "full" }
    );
    let mut failed = false;
    for id in &targets {
        if id == "gate" {
            let (out, pass) = ex::gate::run();
            println!("{out}");
            failed |= !pass;
            continue;
        }
        match dispatch(id, scale, quick) {
            Some(out) => println!("{out}"),
            None => unreachable!("targets validated above"),
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
    eprintln!("experiments: {IDS:?}");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
